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

// func foldMaxKernel(x *float64, e unsafe.Pointer, mode, n int) (m float64, nans int)
//
// FoldMaxAbs's body: per vector, the fold x += e (mode 1: float64 e; mode
// 2: float32 e, widened exactly first; mode 0: none, x only read), then
// MaxAbs's accumulate (maxAbsKernel, reduce_amd64.s: VMAXPD with the
// accumulator as second source, so NaN is skipped) and the NaN count, one
// 64-bit lane counter subtracting each lane's all-ones unordered mask.
TEXT ·foldMaxKernel(SB), NOSPLIT, $0-48
	MOVQ     x+0(FP), SI
	MOVQ     e+8(FP), DX
	MOVQ     mode+16(FP), AX
	MOVQ     n+24(FP), CX
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $1, Y15, Y15
	VXORPD   Y0, Y0, Y0
	VXORPD   Y1, Y1, Y1
	VPXOR    Y2, Y2, Y2
	VPXOR    Y3, Y3, Y3
	CMPQ     AX, $1
	JEQ      fold64loop
	JGT      fold32loop

foldscanloop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	ADDQ    $64, SI
	VANDPD  Y15, Y4, Y6
	VANDPD  Y15, Y5, Y7
	VMAXPD  Y0, Y6, Y0
	VMAXPD  Y1, Y7, Y1
	VCMPPD  $0x03, Y4, Y4, Y6
	VCMPPD  $0x03, Y5, Y5, Y7
	VPSUBQ  Y6, Y2, Y2
	VPSUBQ  Y7, Y3, Y3
	SUBQ    $8, CX
	JNZ     foldscanloop
	JMP     folddone

fold64loop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VADDPD  (DX), Y4, Y4
	VADDPD  32(DX), Y5, Y5
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, 32(SI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	VANDPD  Y15, Y4, Y6
	VANDPD  Y15, Y5, Y7
	VMAXPD  Y0, Y6, Y0
	VMAXPD  Y1, Y7, Y1
	VCMPPD  $0x03, Y4, Y4, Y6
	VCMPPD  $0x03, Y5, Y5, Y7
	VPSUBQ  Y6, Y2, Y2
	VPSUBQ  Y7, Y3, Y3
	SUBQ    $8, CX
	JNZ     fold64loop
	JMP     folddone

fold32loop:
	VCVTPS2PD (DX), Y8
	VCVTPS2PD 16(DX), Y9
	VMOVUPD   (SI), Y4
	VMOVUPD   32(SI), Y5
	VADDPD    Y8, Y4, Y4
	VADDPD    Y9, Y5, Y5
	VMOVUPD   Y4, (SI)
	VMOVUPD   Y5, 32(SI)
	ADDQ      $64, SI
	ADDQ      $32, DX
	VANDPD    Y15, Y4, Y6
	VANDPD    Y15, Y5, Y7
	VMAXPD    Y0, Y6, Y0
	VMAXPD    Y1, Y7, Y1
	VCMPPD    $0x03, Y4, Y4, Y6
	VCMPPD    $0x03, Y5, Y5, Y7
	VPSUBQ    Y6, Y2, Y2
	VPSUBQ    Y7, Y3, Y3
	SUBQ      $8, CX
	JNZ       fold32loop

folddone:
	VMAXPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	MOVSD        X0, m+32(FP)
	VPADDQ       Y3, Y2, Y2
	VEXTRACTI128 $1, Y2, X3
	VPADDQ       X3, X2, X2
	VPSHUFD      $0x4E, X2, X3
	VPADDQ       X3, X2, X2
	VMOVQ        X2, AX
	MOVQ         AX, nans+40(FP)
	VZEROUPPER
	RET

// func quantDecKernel(x, u *float64, inv, scale float64, q *int8, e unsafe.Pointer, e32 bool, n int)
//
// QuantizeDecode's body: per lane, k as in quantizeKernel (the clamped
// rounding, +0 where v = x·inv is not finite), stored as a byte; then the
// decoded value d = scale·k (k holds the byte's value exactly, and never
// −0), the residual r = x − d, zeroed where r−r is NaN (r not finite), d
// stored over x and r into e, narrowed to float32 when e32 is set.
TEXT ·quantDecKernel(SB), NOSPLIT, $0-64
	MOVQ         x+0(FP), SI
	MOVQ         u+8(FP), DX
	VBROADCASTSD inv+16(FP), Y15
	VBROADCASTSD scale+24(FP), Y11
	MOVQ         q+32(FP), DI
	MOVQ         e+40(FP), BX
	MOVBLZX      e32+48(FP), R9
	MOVQ         n+56(FP), CX
	VBROADCASTSD qOne<>(SB), Y14
	VBROADCASTSD qMax<>(SB), Y13
	VBROADCASTSD qMin<>(SB), Y12

quantdecloop:
	VMOVUPD    (SI), Y8
	VMOVUPD    32(SI), Y9
	VMULPD     Y8, Y15, Y0
	VMULPD     Y9, Y15, Y1
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
	VCVTPD2DQY Y2, X6
	VCVTPD2DQY Y3, X7
	VPACKSSDW  X7, X6, X6
	VPACKSSWB  X6, X6, X6
	VMOVQ      X6, (DI)
	VMULPD     Y2, Y11, Y2
	VMULPD     Y3, Y11, Y3
	VSUBPD     Y2, Y8, Y4
	VSUBPD     Y3, Y9, Y5
	VSUBPD     Y4, Y4, Y6
	VSUBPD     Y5, Y5, Y7
	VCMPPD     $0x07, Y6, Y6, Y6
	VCMPPD     $0x07, Y7, Y7, Y7
	VANDPD     Y6, Y4, Y4
	VANDPD     Y7, Y5, Y5
	VMOVUPD    Y2, (SI)
	VMOVUPD    Y3, 32(SI)
	ADDQ       $64, SI
	ADDQ       $64, DX
	ADDQ       $8, DI
	TESTQ      R9, R9
	JNZ        quantdec32

	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	ADDQ    $64, BX
	SUBQ    $8, CX
	JNZ     quantdecloop
	VZEROUPPER
	RET

quantdec32:
	VCVTPD2PSY Y4, X4
	VCVTPD2PSY Y5, X5
	VMOVUPS    X4, (BX)
	VMOVUPS    X5, 16(BX)
	ADDQ       $32, BX
	SUBQ       $8, CX
	JNZ        quantdecloop
	VZEROUPPER
	RET
