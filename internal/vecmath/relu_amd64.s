//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 ReLU bodies for the drivers in relu.go. The forward pass is a max
// against a zero vector held as the *second* source: (V)MAXPD/PS return
// the second source when either operand is NaN or both are zero, which is
// what maps NaN and −0 to +0. The backward pass builds the x > 0 mask as
// the ordered, quiet 0 < x (predicate 0x11, false on NaN) and ANDs dy
// through it. Go's operand order is the reverse of Intel's, so the zero
// vector is written first in VMAX and x first in VCMP.

// func reluKernel(x, y *float64, n int)
TEXT ·reluKernel(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   y+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0

reluloop:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMAXPD  Y0, Y1, Y1
	VMAXPD  Y0, Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     reluloop

	VZEROUPPER
	RET

// func reluGradKernel(x, dy, dx *float64, n int)
TEXT ·reluGradKernel(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   dy+8(FP), R8
	MOVQ   dx+16(FP), DI
	MOVQ   n+24(FP), CX
	VXORPD Y0, Y0, Y0

relugradloop:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VCMPPD  $0x11, Y1, Y0, Y1
	VCMPPD  $0x11, Y2, Y0, Y2
	VANDPD  (R8), Y1, Y1
	VANDPD  32(R8), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, R8
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     relugradloop

	VZEROUPPER
	RET

// func relu32Kernel(x, y *float32, n int)
TEXT ·relu32Kernel(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   y+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPS Y0, Y0, Y0

relu32loop:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMAXPS  Y0, Y1, Y1
	VMAXPS  Y0, Y2, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     relu32loop

	VZEROUPPER
	RET

// func reluGrad32Kernel(x, dy, dx *float32, n int)
TEXT ·reluGrad32Kernel(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   dy+8(FP), R8
	MOVQ   dx+16(FP), DI
	MOVQ   n+24(FP), CX
	VXORPS Y0, Y0, Y0

relugrad32loop:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VCMPPS  $0x11, Y1, Y0, Y1
	VCMPPS  $0x11, Y2, Y0, Y2
	VANDPS  (R8), Y1, Y1
	VANDPS  32(R8), Y2, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, R8
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     relugrad32loop

	VZEROUPPER
	RET
