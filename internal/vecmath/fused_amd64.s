//go:build amd64 && !noasm

#include "textflag.h"

// Float64 level-1 AVX2 kernels (table entries in kernels_amd64.go): the
// fused FMA bodies of the corrected-SGD and freeloader hot paths (see
// fused.go), and the FMA-free axpy/add/sub bodies that round exactly as
// their scalar loops. All are leaf functions that stream eight float64s
// (two YMM vectors) per iteration; the Go wrappers handle the sub-8
// tails, so n is always a positive multiple of 8 here.

// func axpypyKernel(a float64, x *float64, b float64, y, z *float64, n int)
// z[i] += a*x[i] + b*y[i]
TEXT ·axpypyKernel(SB), NOSPLIT, $0-48
	VBROADCASTSD a+0(FP), Y14
	VBROADCASTSD b+16(FP), Y15
	MOVQ         x+8(FP), R8
	MOVQ         y+24(FP), R9
	MOVQ         z+32(FP), DI
	MOVQ         n+40(FP), CX

axpypyloop:
	VMOVUPD     (DI), Y0
	VMOVUPD     32(DI), Y1
	VMOVUPD     (R8), Y2
	VMOVUPD     32(R8), Y3
	VMOVUPD     (R9), Y4
	VMOVUPD     32(R9), Y5
	VFMADD231PD Y2, Y14, Y0
	VFMADD231PD Y3, Y14, Y1
	VFMADD231PD Y4, Y15, Y0
	VFMADD231PD Y5, Y15, Y1
	VMOVUPD     Y0, (DI)
	VMOVUPD     Y1, 32(DI)
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, DI
	SUBQ        $8, CX
	JNZ         axpypyloop

	VZEROUPPER
	RET

// func subScaleKernel(s float64, a, b, dst *float64, n int)
// dst[i] = s*(a[i]-b[i])
TEXT ·subScaleKernel(SB), NOSPLIT, $0-40
	VBROADCASTSD s+0(FP), Y15
	MOVQ         a+8(FP), R8
	MOVQ         b+16(FP), R9
	MOVQ         dst+24(FP), DI
	MOVQ         n+32(FP), CX

subscaleloop:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VSUBPD  Y2, Y0, Y0
	VSUBPD  Y3, Y1, Y1
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     subscaleloop

	VZEROUPPER
	RET

// func axpyKernel(alpha float64, x, y *float64, n int)
// y[i] += alpha * x[i], as a multiply then an add: no FMA, so each
// element rounds twice exactly as the scalar Go loop does.
TEXT ·axpyKernel(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y15
	MOVQ         x+8(FP), R8
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

axpyloop:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, R8
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     axpyloop

	VZEROUPPER
	RET

// func addKernel(a, b, dst *float64, n int)
// dst[i] = a[i] + b[i]; dst may exactly alias a or b (both loads of a
// block precede its store, so in-place updates see the old values).
TEXT ·addKernel(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ dst+16(FP), DI
	MOVQ n+24(FP), CX

addloop:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VADDPD  (R9), Y0, Y0
	VADDPD  32(R9), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     addloop

	VZEROUPPER
	RET

// func subKernel(a, b, dst *float64, n int)
// dst[i] = a[i] - b[i]; same aliasing rule as addKernel.
TEXT ·subKernel(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ dst+16(FP), DI
	MOVQ n+24(FP), CX

subloop:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VSUBPD  (R9), Y0, Y0
	VSUBPD  32(R9), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     subloop

	VZEROUPPER
	RET

// func fillKernel(dst *float64, v float64, n int)
// dst[i] = v, two broadcast vectors stored per iteration: data movement,
// the seed GemmBias accumulates a channel's product onto.
TEXT ·fillKernel(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	VBROADCASTSD v+8(FP), Y0
	MOVQ         n+16(FP), CX

fillloop:
	VMOVUPD Y0, (DI)
	VMOVUPD Y0, 32(DI)
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     fillloop

	VZEROUPPER
	RET
