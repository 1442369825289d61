//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA float32 microkernels for the GEMM drivers in matrix.go.
// Mechanical ports of the float64 kernels in gemm_amd64.s at twice the
// lane width: a YMM register holds 8 float32s, so the two-vector tiles
// cover 16 columns and the one-vector tiles cover 8. Same structure
// throughout — leaf functions, accumulator tiles live in YMM registers,
// C is touched exactly once.

// func gemm32Kernel4x16(a0, a1, a2, a3, b *float32, ldb int, c *float32, ldc, k int)
TEXT ·gemm32Kernel4x16(SB), NOSPLIT, $0-72
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), R12
	SHLQ $2, R12
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), R13
	SHLQ $2, R13
	MOVQ k+64(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

gemm32_4x16loop:
	VBROADCASTSS (R8), Y10
	VBROADCASTSS (R9), Y11
	VBROADCASTSS (R10), Y12
	VBROADCASTSS (R11), Y13
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm32_4x16loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	VADDPS  32(DI), Y3, Y3
	VMOVUPS Y3, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y4, Y4
	VMOVUPS Y4, (DI)
	VADDPS  32(DI), Y5, Y5
	VMOVUPS Y5, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y6, Y6
	VMOVUPS Y6, (DI)
	VADDPS  32(DI), Y7, Y7
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm32Kernel1x16(a, b *float32, ldb int, c *float32, k int)
TEXT ·gemm32Kernel1x16(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R12
	SHLQ $2, R12
	MOVQ c+24(FP), DI
	MOVQ k+32(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

gemm32_1x16loop:
	VBROADCASTSS (R8), Y10
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	ADDQ         $4, R8
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm32_1x16loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func gemm32Kernel4x8(a0, a1, a2, a3, b *float32, ldb int, c *float32, ldc, k int)
TEXT ·gemm32Kernel4x8(SB), NOSPLIT, $0-72
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), R12
	SHLQ $2, R12
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), R13
	SHLQ $2, R13
	MOVQ k+64(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

gemm32_4x8loop:
	VBROADCASTSS (R8), Y10
	VBROADCASTSS (R9), Y11
	VBROADCASTSS (R10), Y12
	VBROADCASTSS (R11), Y13
	VMOVUPS      (SI), Y8
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y8, Y11, Y1
	VFMADD231PS  Y8, Y12, Y2
	VFMADD231PS  Y8, Y13, Y3
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm32_4x8loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y3, Y3
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func gemm32Kernel1x8(a, b *float32, ldb int, c *float32, k int)
TEXT ·gemm32Kernel1x8(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R12
	SHLQ $2, R12
	MOVQ c+24(FP), DI
	MOVQ k+32(FP), CX

	VXORPS Y0, Y0, Y0

gemm32_1x8loop:
	VBROADCASTSS (R8), Y10
	VMOVUPS      (SI), Y8
	VFMADD231PS  Y8, Y10, Y0
	ADDQ         $4, R8
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm32_1x8loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func atb32Kernel4x16(a *float32, lda int, b *float32, ldb int, c *float32, ldc, m int)
TEXT ·atb32Kernel4x16(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $2, R12
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R13
	SHLQ $2, R13
	MOVQ m+48(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

atb32_4x16loop:
	VBROADCASTSS (AX), Y10
	VBROADCASTSS 4(AX), Y11
	VBROADCASTSS 8(AX), Y12
	VBROADCASTSS 12(AX), Y13
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb32_4x16loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	VADDPS  32(DI), Y3, Y3
	VMOVUPS Y3, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y4, Y4
	VMOVUPS Y4, (DI)
	VADDPS  32(DI), Y5, Y5
	VMOVUPS Y5, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y6, Y6
	VMOVUPS Y6, (DI)
	VADDPS  32(DI), Y7, Y7
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func atb32Kernel1x16(a *float32, lda int, b *float32, ldb int, c *float32, m int)
TEXT ·atb32Kernel1x16(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $2, R12
	MOVQ c+32(FP), DI
	MOVQ m+40(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

atb32_1x16loop:
	VBROADCASTSS (AX), Y10
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb32_1x16loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func atb32Kernel4x8(a *float32, lda int, b *float32, ldb int, c *float32, ldc, m int)
TEXT ·atb32Kernel4x8(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $2, R12
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R13
	SHLQ $2, R13
	MOVQ m+48(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

atb32_4x8loop:
	VBROADCASTSS (AX), Y10
	VBROADCASTSS 4(AX), Y11
	VBROADCASTSS 8(AX), Y12
	VBROADCASTSS 12(AX), Y13
	VMOVUPS      (SI), Y8
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y8, Y11, Y1
	VFMADD231PS  Y8, Y12, Y2
	VFMADD231PS  Y8, Y13, Y3
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb32_4x8loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y3, Y3
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func atb32Kernel1x8(a *float32, lda int, b *float32, ldb int, c *float32, m int)
TEXT ·atb32Kernel1x8(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $2, R12
	MOVQ c+32(FP), DI
	MOVQ m+40(FP), CX

	VXORPS Y0, Y0, Y0

atb32_1x8loop:
	VBROADCASTSS (AX), Y10
	VMOVUPS      (SI), Y8
	VFMADD231PS  Y8, Y10, Y0
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb32_1x8loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func abt32Kernel2xN(a0, a1, b *float32, k, nq int, c0, c1 *float32, accumulate bool)
//
// The float32 form of abtKernel2xN: the vector prefix is k &^ 7 elements
// in eight FMA lanes, folded as ((l0+l4)+(l1+l5))+((l2+l6)+(l3+l7)), and
// the k%8 tail products are added one at a time.
TEXT ·abt32Kernel2xN(SB), NOSPLIT, $0-57
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ b+16(FP), R10
	MOVQ k+24(FP), R14
	MOVQ nq+32(FP), BX
	MOVQ c0+40(FP), DI
	MOVQ c1+48(FP), SI
	MOVQ R14, DX
	ANDQ $-8, DX  // elements in the vector prefix
	SHLQ $2, R14  // bytes per row

abt32group:
	LEAQ   (R10)(R14*1), R11
	LEAQ   (R11)(R14*1), R12
	LEAQ   (R12)(R14*1), R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   AX, AX
	MOVQ   DX, CX

abt32vec:
	VMOVUPS     (R8)(AX*1), Y8
	VMOVUPS     (R9)(AX*1), Y9
	VMOVUPS     (R10)(AX*1), Y10
	VMOVUPS     (R11)(AX*1), Y11
	VMOVUPS     (R12)(AX*1), Y12
	VMOVUPS     (R13)(AX*1), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y9, Y7
	ADDQ        $32, AX
	SUBQ        $8, CX
	JNZ         abt32vec

	// Horizontal reduction of each 8-lane accumulator into its low lane.
	VEXTRACTF128 $1, Y0, X8
	VADDPS       X8, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPS       X8, X1, X1
	VHADDPS      X1, X1, X1
	VHADDPS      X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPS       X8, X2, X2
	VHADDPS      X2, X2, X2
	VHADDPS      X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPS       X8, X3, X3
	VHADDPS      X3, X3, X3
	VHADDPS      X3, X3, X3
	VEXTRACTF128 $1, Y4, X8
	VADDPS       X8, X4, X4
	VHADDPS      X4, X4, X4
	VHADDPS      X4, X4, X4
	VEXTRACTF128 $1, Y5, X8
	VADDPS       X8, X5, X5
	VHADDPS      X5, X5, X5
	VHADDPS      X5, X5, X5
	VEXTRACTF128 $1, Y6, X8
	VADDPS       X8, X6, X6
	VHADDPS      X6, X6, X6
	VHADDPS      X6, X6, X6
	VEXTRACTF128 $1, Y7, X8
	VADDPS       X8, X7, X7
	VHADDPS      X7, X7, X7
	VHADDPS      X7, X7, X7

	CMPQ AX, R14
	JGE  abt32store

abt32tail:
	VMOVSS (R8)(AX*1), X8
	VMOVSS (R9)(AX*1), X9
	VMOVSS (R10)(AX*1), X10
	VMOVSS (R11)(AX*1), X11
	VMOVSS (R12)(AX*1), X12
	VMOVSS (R13)(AX*1), X13
	VMULSS X10, X8, X14
	VADDSS X14, X0, X0
	VMULSS X11, X8, X14
	VADDSS X14, X1, X1
	VMULSS X12, X8, X14
	VADDSS X14, X2, X2
	VMULSS X13, X8, X14
	VADDSS X14, X3, X3
	VMULSS X10, X9, X14
	VADDSS X14, X4, X4
	VMULSS X11, X9, X14
	VADDSS X14, X5, X5
	VMULSS X12, X9, X14
	VADDSS X14, X6, X6
	VMULSS X13, X9, X14
	VADDSS X14, X7, X7
	ADDQ   $4, AX
	CMPQ   AX, R14
	JLT    abt32tail

abt32store:
	// Gather the eight low lanes into one vector per C row.
	VUNPCKLPS X1, X0, X0
	VUNPCKLPS X3, X2, X2
	VMOVLHPS  X2, X0, X0
	VUNPCKLPS X5, X4, X4
	VUNPCKLPS X7, X6, X6
	VMOVLHPS  X6, X4, X4
	MOVBLZX   accumulate+56(FP), CX
	TESTL     CX, CX
	JZ        abt32put
	VADDPS    (DI), X0, X0
	VADDPS    (SI), X4, X4

abt32put:
	VMOVUPS X0, (DI)
	VMOVUPS X4, (SI)
	ADDQ    $16, DI
	ADDQ    $16, SI
	LEAQ    (R13)(R14*1), R10
	DECQ    BX
	JNZ     abt32group

	VZEROUPPER
	RET
