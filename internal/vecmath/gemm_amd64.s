//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA float64 microkernels for the GEMM drivers in matrix.go. All
// kernels are leaf functions that keep their accumulator tiles in YMM
// registers and touch C exactly once, so the inner loops are pure
// load+FMA streams. Remainder rows/columns and short reductions are
// handled by the pure-Go fallback paths, which keeps the assembly small.

// func cpuSupportsAVX2FMA() bool
TEXT ·cpuSupportsAVX2FMA(SB), NOSPLIT, $0-1
	// Highest function parameter must reach leaf 7.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  unsupported

	// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	CPUID
	MOVL CX, R8
	ANDL $402657280, R8  // 1<<12 | 1<<27 | 1<<28
	CMPL R8, $402657280
	JNE  unsupported

	// XCR0 bits 1 and 2: XMM and YMM state enabled by the OS.
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  unsupported

	// Leaf 7 subleaf 0 EBX: AVX2 (bit 5).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $32, BX
	JZ   unsupported

	MOVB $1, ret+0(FP)
	RET

unsupported:
	MOVB $0, ret+0(FP)
	RET

// func gemmKernel4x8(a0, a1, a2, a3, b *float64, ldb int, c *float64, ldc, k int)
TEXT ·gemmKernel4x8(SB), NOSPLIT, $0-72
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), R12
	SHLQ $3, R12
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), R13
	SHLQ $3, R13
	MOVQ k+64(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

gemm4x8loop:
	VBROADCASTSD (R8), Y10
	VBROADCASTSD (R9), Y11
	VBROADCASTSD (R10), Y12
	VBROADCASTSD (R11), Y13
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $8, R8
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         $8, R11
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm4x8loop

	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	VADDPD  32(DI), Y3, Y3
	VMOVUPD Y3, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y4, Y4
	VMOVUPD Y4, (DI)
	VADDPD  32(DI), Y5, Y5
	VMOVUPD Y5, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y6, Y6
	VMOVUPD Y6, (DI)
	VADDPD  32(DI), Y7, Y7
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func gemmKernel1x8(a, b *float64, ldb int, c *float64, k int)
TEXT ·gemmKernel1x8(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R12
	SHLQ $3, R12
	MOVQ c+24(FP), DI
	MOVQ k+32(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

gemm1x8loop:
	VBROADCASTSD (R8), Y10
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	ADDQ         $8, R8
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm1x8loop

	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func atbKernel4x8(a *float64, lda int, b *float64, ldb int, c *float64, ldc, m int)
TEXT ·atbKernel4x8(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $3, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $3, R12
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R13
	SHLQ $3, R13
	MOVQ m+48(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

atb4x8loop:
	VBROADCASTSD (AX), Y10
	VBROADCASTSD 8(AX), Y11
	VBROADCASTSD 16(AX), Y12
	VBROADCASTSD 24(AX), Y13
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb4x8loop

	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	VADDPD  32(DI), Y3, Y3
	VMOVUPD Y3, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y4, Y4
	VMOVUPD Y4, (DI)
	VADDPD  32(DI), Y5, Y5
	VMOVUPD Y5, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y6, Y6
	VMOVUPD Y6, (DI)
	VADDPD  32(DI), Y7, Y7
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func atbKernel1x8(a *float64, lda int, b *float64, ldb int, c *float64, m int)
TEXT ·atbKernel1x8(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $3, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $3, R12
	MOVQ c+32(FP), DI
	MOVQ m+40(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

atb1x8loop:
	VBROADCASTSD (AX), Y10
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb1x8loop

	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func abtKernel2xN(a0, a1, b *float64, k, nq int, c0, c1 *float64, accumulate bool)
//
// Two A rows against nq groups of four consecutive B rows (row length k).
// Each of the eight dot products of a group accumulates its whole-vector
// prefix (k &^ 3 elements, at least one vector) in four FMA lanes, folds
// them as (l0+l2)+(l1+l3), then adds the remaining k%4 products one at a
// time, multiply and add rounded separately; the finished tile is stored
// to, or added into, c0[4g..4g+3] and c1[4g..4g+3].
TEXT ·abtKernel2xN(SB), NOSPLIT, $0-57
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ b+16(FP), R10
	MOVQ k+24(FP), R14
	MOVQ nq+32(FP), BX
	MOVQ c0+40(FP), DI
	MOVQ c1+48(FP), SI
	MOVQ R14, DX
	ANDQ $-4, DX  // elements in the vector prefix
	SHLQ $3, R14  // bytes per row

abtgroup:
	LEAQ   (R10)(R14*1), R11
	LEAQ   (R11)(R14*1), R12
	LEAQ   (R12)(R14*1), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	MOVQ   DX, CX

abtvec:
	VMOVUPD     (R8)(AX*1), Y8
	VMOVUPD     (R9)(AX*1), Y9
	VMOVUPD     (R10)(AX*1), Y10
	VMOVUPD     (R11)(AX*1), Y11
	VMOVUPD     (R12)(AX*1), Y12
	VMOVUPD     (R13)(AX*1), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ        $32, AX
	SUBQ        $4, CX
	JNZ         abtvec

	// Horizontal reduction of each accumulator into its low lane.
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VHADDPD      X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD       X8, X1, X1
	VHADDPD      X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VHADDPD      X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD       X8, X3, X3
	VHADDPD      X3, X3, X3
	VEXTRACTF128 $1, Y4, X8
	VADDPD       X8, X4, X4
	VHADDPD      X4, X4, X4
	VEXTRACTF128 $1, Y5, X8
	VADDPD       X8, X5, X5
	VHADDPD      X5, X5, X5
	VEXTRACTF128 $1, Y6, X8
	VADDPD       X8, X6, X6
	VHADDPD      X6, X6, X6
	VEXTRACTF128 $1, Y7, X8
	VADDPD       X8, X7, X7
	VHADDPD      X7, X7, X7

	CMPQ AX, R14
	JGE  abtstore

abttail:
	VMOVSD (R8)(AX*1), X8
	VMOVSD (R9)(AX*1), X9
	VMOVSD (R10)(AX*1), X10
	VMOVSD (R11)(AX*1), X11
	VMOVSD (R12)(AX*1), X12
	VMOVSD (R13)(AX*1), X13
	VMULSD X10, X8, X14
	VADDSD X14, X0, X0
	VMULSD X11, X8, X14
	VADDSD X14, X1, X1
	VMULSD X12, X8, X14
	VADDSD X14, X2, X2
	VMULSD X13, X8, X14
	VADDSD X14, X3, X3
	VMULSD X10, X9, X14
	VADDSD X14, X4, X4
	VMULSD X11, X9, X14
	VADDSD X14, X5, X5
	VMULSD X12, X9, X14
	VADDSD X14, X6, X6
	VMULSD X13, X9, X14
	VADDSD X14, X7, X7
	ADDQ   $8, AX
	CMPQ   AX, R14
	JLT    abttail

abtstore:
	// Gather the eight low lanes into one vector per C row.
	VUNPCKLPD   X1, X0, X0
	VUNPCKLPD   X3, X2, X2
	VINSERTF128 $1, X2, Y0, Y0
	VUNPCKLPD   X5, X4, X4
	VUNPCKLPD   X7, X6, X6
	VINSERTF128 $1, X6, Y4, Y4
	MOVBLZX     accumulate+56(FP), CX
	TESTL       CX, CX
	JZ          abtput
	VADDPD      (DI), Y0, Y0
	VADDPD      (SI), Y4, Y4

abtput:
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	LEAQ    (R13)(R14*1), R10
	DECQ    BX
	JNZ     abtgroup

	VZEROUPPER
	RET
