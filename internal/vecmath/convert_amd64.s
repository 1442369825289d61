//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 bodies for the drivers in convert.go, eight float64 lanes (two YMM
// vectors) per iteration. Every instruction rounds exactly as its scalar
// counterpart in the pure-Go loops does: VCVTPS2PD is exact, VCVTPD2PS
// rounds to nearest-even as CVTSD2SS does (the MXCSR default, which Go
// never changes), VROUNDPD $1 is math.Floor's ROUNDSD, and the quantizer's
// subtract, compare, add and clamp see integers and values below 2⁷ that
// each lane computes on its own. Go's operand order is the reverse of
// Intel's: VCMPPD $p, b, a, dst computes a <p> b.

DATA qOne<>+0(SB)/8, $0x3FF0000000000000  // 1.0
GLOBL qOne<>(SB), RODATA|NOPTR, $8
DATA qMax<>+0(SB)/8, $0x405FC00000000000  // 127.0
GLOBL qMax<>(SB), RODATA|NOPTR, $8
DATA qMin<>+0(SB)/8, $0xC05FC00000000000  // -127.0
GLOBL qMin<>(SB), RODATA|NOPTR, $8

// func widenKernel(x *float32, y *float64, n int)
TEXT ·widenKernel(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX

widenloop:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       widenloop

	VZEROUPPER
	RET

// func narrowKernel(x *float64, y *float32, n int)
TEXT ·narrowKernel(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX

narrowloop:
	VCVTPD2PSY (SI), X0
	VCVTPD2PSY 32(SI), X1
	VMOVUPS    X0, (DI)
	VMOVUPS    X1, 16(DI)
	ADDQ       $64, SI
	ADDQ       $32, DI
	SUBQ       $8, CX
	JNZ        narrowloop

	VZEROUPPER
	RET

// func quantizeKernel(x, u *float64, inv float64, q *int8, n int)
//
// Per lane: v = x·inv, f = floor(v), up = 1.0 where u < v−f (ordered, so
// false on NaN), k = clamp(f+up, −127, 127), zeroed where v−v is NaN (v
// not finite); then four int32 conversions per vector, packed to bytes.
TEXT ·quantizeKernel(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), SI
	MOVQ         u+8(FP), DX
	VBROADCASTSD inv+16(FP), Y15
	MOVQ         q+24(FP), DI
	MOVQ         n+32(FP), CX
	VBROADCASTSD qOne<>(SB), Y14
	VBROADCASTSD qMax<>(SB), Y13
	VBROADCASTSD qMin<>(SB), Y12

quantloop:
	VMULPD     (SI), Y15, Y0
	VMULPD     32(SI), Y15, Y1
	VROUNDPD   $1, Y0, Y2
	VROUNDPD   $1, Y1, Y3
	VSUBPD     Y2, Y0, Y4
	VSUBPD     Y3, Y1, Y5
	VMOVUPD    (DX), Y6
	VMOVUPD    32(DX), Y7
	VCMPPD     $0x11, Y4, Y6, Y6
	VCMPPD     $0x11, Y5, Y7, Y7
	VANDPD     Y14, Y6, Y6
	VANDPD     Y14, Y7, Y7
	VADDPD     Y6, Y2, Y2
	VADDPD     Y7, Y3, Y3
	VMINPD     Y13, Y2, Y2
	VMINPD     Y13, Y3, Y3
	VMAXPD     Y12, Y2, Y2
	VMAXPD     Y12, Y3, Y3
	VSUBPD     Y0, Y0, Y0
	VSUBPD     Y1, Y1, Y1
	VCMPPD     $0x07, Y0, Y0, Y0
	VCMPPD     $0x07, Y1, Y1, Y1
	VANDPD     Y0, Y2, Y2
	VANDPD     Y1, Y3, Y3
	VCVTPD2DQY Y2, X2
	VCVTPD2DQY Y3, X3
	VPACKSSDW  X3, X2, X2
	VPACKSSWB  X2, X2, X2
	VMOVQ      X2, (DI)
	ADDQ       $64, SI
	ADDQ       $64, DX
	ADDQ       $8, DI
	SUBQ       $8, CX
	JNZ        quantloop

	VZEROUPPER
	RET
