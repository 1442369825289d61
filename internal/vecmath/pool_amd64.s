//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 body of the 2×2 max-pool driver in pool.go. A block is 16
// consecutive inputs, loaded as four vectors P, Q, R, S at element offsets
// 0, q, inW and q+inW: for inW = 8 that is one row pair (P, Q the upper
// row, R, S the lower), for inW = 4 two of them (P, R the first pair's
// rows, Q, S the second's). Either way UNPCKLPD/UNPCKHPD of (P, Q) and of
// (R, S) give the a, b, c and d taps of four windows, in output order
// 0, 2, 1, 3, and the window whose a tap is lane k's sits at lanes[k].
//
// The chain best = a; b, c, d replace it when strictly greater runs as
// VCMPPD GT_OQ (predicate 0x1E: false on NaN, false on a tie) and
// VBLENDVPD, applied with one mask to the values and to the int64 offsets,
// so each lane selects exactly what the scalar compare-and-branch selects.
// VPERMPD/VPERMQ $0xD8 (lanes 0, 2, 1, 3) restore output order before the
// stores. Every instruction is VEX-encoded: one legacy-SSE move inside the
// YMM region costs a state transition on every block.

// func pool2Kernel(x, y *float64, arg *int, lanes *[4]int, inW, n int)
TEXT ·pool2Kernel(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ arg+16(FP), R8
	MOVQ lanes+24(FP), AX
	MOVQ inW+32(FP), R10
	MOVQ n+40(FP), CX

	MOVQ         8(AX), R9 // q
	SHLQ         $3, R9    // byte offset of Q
	SHLQ         $3, R10   // byte offset of R
	LEAQ         (R9)(R10*1), R11
	VMOVDQU      (AX), Y8                // a-tap offsets of the current block
	VPBROADCASTQ inW+32(FP), Y13         // c tap = a tap + inW
	VPCMPEQQ     Y15, Y15, Y15
	VPSRLQ       $63, Y15, Y15           // 1: b = a + 1, d = c + 1
	VPSLLQ       $4, Y15, Y14            // 16: one block further

pool2loop:
	VMOVUPD   (SI), Y0
	VMOVUPD   (SI)(R9*1), Y1
	VMOVUPD   (SI)(R10*1), Y2
	VMOVUPD   (SI)(R11*1), Y3
	VUNPCKLPD Y1, Y0, Y4 // a: best so far
	VUNPCKHPD Y1, Y0, Y5 // b
	VUNPCKLPD Y3, Y2, Y6 // c
	VUNPCKHPD Y3, Y2, Y7 // d

	VPADDQ    Y15, Y8, Y9
	VCMPPD    $0x1E, Y4, Y5, Y12 // b > best
	VBLENDVPD Y12, Y5, Y4, Y4
	VBLENDVPD Y12, Y9, Y8, Y10

	VPADDQ    Y13, Y8, Y9
	VCMPPD    $0x1E, Y4, Y6, Y12 // c > best
	VBLENDVPD Y12, Y6, Y4, Y4
	VBLENDVPD Y12, Y9, Y10, Y10

	VPADDQ    Y15, Y9, Y9
	VCMPPD    $0x1E, Y4, Y7, Y12 // d > best
	VBLENDVPD Y12, Y7, Y4, Y4
	VBLENDVPD Y12, Y9, Y10, Y10

	VPERMPD $0xD8, Y4, Y4
	VPERMQ  $0xD8, Y10, Y10
	VMOVUPD Y4, (DI)
	VMOVDQU Y10, (R8)
	VPADDQ  Y14, Y8, Y8
	ADDQ    $128, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    CX
	JNZ     pool2loop

	VZEROUPPER
	RET
