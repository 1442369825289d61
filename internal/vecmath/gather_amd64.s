//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 bodies of Gather and GatherSum (gather.go). VPGATHERDQ fetches the
// four 64-bit elements at four int32 offsets (sign-extended, scaled by 8)
// into one YMM vector. It clears its mask as lanes complete, so each gather
// takes a fresh copy of the all-ones mask in Y15, and it merges into its
// destination, so the destination is zeroed first to break the dependency
// on its old value. Mask, index and destination must be distinct
// registers. The offsets were checked when their table was built
// (NewGatherTable, GatherTable.Adjoint), so every lane reads within src.

// func gatherKernel(dst, src *float64, idx *int32, n int)
TEXT ·gatherKernel(SB), NOSPLIT, $0-32
	MOVQ     dst+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVQ     idx+16(FP), R8
	MOVQ     n+24(FP), CX
	VPCMPEQQ Y15, Y15, Y15
	CMPQ     CX, $16
	JLT      gatherfour

gatherloop:
	VMOVDQU    (R8), X0
	VMOVDQU    16(R8), X1
	VMOVDQU    32(R8), X2
	VMOVDQU    48(R8), X3
	VMOVDQU    Y15, Y8
	VMOVDQU    Y15, Y9
	VMOVDQU    Y15, Y10
	VMOVDQU    Y15, Y11
	VPXOR      Y4, Y4, Y4
	VPXOR      Y5, Y5, Y5
	VPXOR      Y6, Y6, Y6
	VPXOR      Y7, Y7, Y7
	VPGATHERDQ Y8, (SI)(X0*8), Y4
	VPGATHERDQ Y9, (SI)(X1*8), Y5
	VPGATHERDQ Y10, (SI)(X2*8), Y6
	VPGATHERDQ Y11, (SI)(X3*8), Y7
	VMOVDQU    Y4, (DI)
	VMOVDQU    Y5, 32(DI)
	VMOVDQU    Y6, 64(DI)
	VMOVDQU    Y7, 96(DI)
	ADDQ       $64, R8
	ADDQ       $128, DI
	SUBQ       $16, CX
	CMPQ       CX, $16
	JGE        gatherloop

gatherfour:
	TESTQ      CX, CX
	JZ         gatherdone
	VMOVDQU    (R8), X0
	VMOVDQU    Y15, Y8
	VPXOR      Y4, Y4, Y4
	VPGATHERDQ Y8, (SI)(X0*8), Y4
	VMOVDQU    Y4, (DI)
	ADDQ       $16, R8
	ADDQ       $32, DI
	SUBQ       $4, CX
	JMP        gatherfour

gatherdone:
	VZEROUPPER
	RET

// Each block of four outputs starts its accumulator at +0 (VXORPD) and
// adds one gathered vector per slot, the accumulator as the first source
// as in the scalar dst[q] += v. Blocks are independent, so successive
// blocks' add chains overlap in the out-of-order core.

// func gatherSumKernel(dst, src *float64, rows *int32, slots, n int)
TEXT ·gatherSumKernel(SB), NOSPLIT, $0-40
	MOVQ     dst+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVQ     rows+16(FP), R8
	MOVQ     slots+24(FP), R9
	MOVQ     n+32(FP), CX
	VPCMPEQQ Y15, Y15, Y15

gsumblock:
	VXORPD Y0, Y0, Y0
	MOVQ   R9, DX

gsumslot:
	VMOVDQU    (R8), X1
	VMOVDQU    Y15, Y2
	VPXOR      Y3, Y3, Y3
	VPGATHERDQ Y2, (SI)(X1*8), Y3
	VADDPD     Y3, Y0, Y0
	ADDQ       $16, R8
	DECQ       DX
	JNZ        gsumslot

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gsumblock

	VZEROUPPER
	RET
