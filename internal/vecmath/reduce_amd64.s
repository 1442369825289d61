//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 body of MaxAbs (reduce.go). |x| is x ANDed with the sign-clear mask
// 0x7FF…F (all ones shifted right by one). Each of four accumulators takes
// VMAXPD with itself as the *second* source, which (V)MAXPD returns when
// either operand is NaN or both are zero: a lane keeps its maximum unless
// |x| is strictly greater, exactly the scalar `if a > m { m = a }`, so a
// NaN element is skipped. The accumulators start at +0 and only ever hold
// non-negative, non-NaN values, so folding them in any order gives the
// one maximum. Go's operand order is the reverse of Intel's: the
// accumulator is written first.

// func maxAbsKernel(x *float64, n int) float64
TEXT ·maxAbsKernel(SB), NOSPLIT, $0-24
	MOVQ     x+0(FP), SI
	MOVQ     n+8(FP), CX
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $1, Y15, Y15
	VXORPD   Y0, Y0, Y0
	VXORPD   Y1, Y1, Y1
	VXORPD   Y2, Y2, Y2
	VXORPD   Y3, Y3, Y3
	CMPQ     CX, $16
	JLT      maxabseight

maxabsloop:
	VANDPD (SI), Y15, Y4
	VANDPD 32(SI), Y15, Y5
	VANDPD 64(SI), Y15, Y6
	VANDPD 96(SI), Y15, Y7
	VMAXPD Y0, Y4, Y0
	VMAXPD Y1, Y5, Y1
	VMAXPD Y2, Y6, Y2
	VMAXPD Y3, Y7, Y3
	ADDQ   $128, SI
	SUBQ   $16, CX
	CMPQ   CX, $16
	JGE    maxabsloop

maxabseight:
	TESTQ  CX, CX
	JZ     maxabsfold
	VANDPD (SI), Y15, Y4
	VANDPD 32(SI), Y15, Y5
	VMAXPD Y0, Y4, Y0
	VMAXPD Y1, Y5, Y1

maxabsfold:
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VZEROUPPER
	MOVSD        X0, ret+16(FP)
	RET
