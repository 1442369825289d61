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

// func abt32Kernel2x4(a0, a1, b0, b1, b2, b3 *float32, k int, out *[8]float32)
TEXT ·abt32Kernel2x4(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ b0+16(FP), R10
	MOVQ b1+24(FP), R11
	MOVQ b2+32(FP), R12
	MOVQ b3+40(FP), R13
	MOVQ k+48(FP), CX
	MOVQ out+56(FP), DI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

abt32_2x4loop:
	VMOVUPS     (R8), Y8
	VMOVUPS     (R9), Y9
	VMOVUPS     (R10), Y10
	VMOVUPS     (R11), Y11
	VMOVUPS     (R12), Y12
	VMOVUPS     (R13), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y9, Y7
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	ADDQ        $32, R12
	ADDQ        $32, R13
	SUBQ        $8, CX
	JNZ         abt32_2x4loop

	// Horizontal reduction of each 8-lane accumulator into out[0..7].
	VEXTRACTF128 $1, Y0, X8
	VADDPS       X8, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, (DI)
	VEXTRACTF128 $1, Y1, X8
	VADDPS       X8, X1, X1
	VHADDPS      X1, X1, X1
	VHADDPS      X1, X1, X1
	VMOVSS       X1, 4(DI)
	VEXTRACTF128 $1, Y2, X8
	VADDPS       X8, X2, X2
	VHADDPS      X2, X2, X2
	VHADDPS      X2, X2, X2
	VMOVSS       X2, 8(DI)
	VEXTRACTF128 $1, Y3, X8
	VADDPS       X8, X3, X3
	VHADDPS      X3, X3, X3
	VHADDPS      X3, X3, X3
	VMOVSS       X3, 12(DI)
	VEXTRACTF128 $1, Y4, X8
	VADDPS       X8, X4, X4
	VHADDPS      X4, X4, X4
	VHADDPS      X4, X4, X4
	VMOVSS       X4, 16(DI)
	VEXTRACTF128 $1, Y5, X8
	VADDPS       X8, X5, X5
	VHADDPS      X5, X5, X5
	VHADDPS      X5, X5, X5
	VMOVSS       X5, 20(DI)
	VEXTRACTF128 $1, Y6, X8
	VADDPS       X8, X6, X6
	VHADDPS      X6, X6, X6
	VHADDPS      X6, X6, X6
	VMOVSS       X6, 24(DI)
	VEXTRACTF128 $1, Y7, X8
	VADDPS       X8, X7, X7
	VHADDPS      X7, X7, X7
	VHADDPS      X7, X7, X7
	VMOVSS       X7, 28(DI)
	VZEROUPPER
	RET
