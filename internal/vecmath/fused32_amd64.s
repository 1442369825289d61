//go:build amd64 && !noasm

#include "textflag.h"

// Float32 fused level-1 AVX2+FMA kernels (table entries in kernels_amd64.go). Ports of the
// float64 kernels in fused_amd64.s at twice the lane width: each
// iteration streams sixteen float32s (two YMM vectors). The Go wrappers
// handle the sub-16 tails, so n is always a positive multiple of 16.

// func axpypy32Kernel(a float32, x *float32, b float32, y, z *float32, n int)
// z[i] += a*x[i] + b*y[i]
TEXT ·axpypy32Kernel(SB), NOSPLIT, $0-48
	VBROADCASTSS a+0(FP), Y14
	VBROADCASTSS b+16(FP), Y15
	MOVQ         x+8(FP), R8
	MOVQ         y+24(FP), R9
	MOVQ         z+32(FP), DI
	MOVQ         n+40(FP), CX

axpypy32loop:
	VMOVUPS     (DI), Y0
	VMOVUPS     32(DI), Y1
	VMOVUPS     (R8), Y2
	VMOVUPS     32(R8), Y3
	VMOVUPS     (R9), Y4
	VMOVUPS     32(R9), Y5
	VFMADD231PS Y2, Y14, Y0
	VFMADD231PS Y3, Y14, Y1
	VFMADD231PS Y4, Y15, Y0
	VFMADD231PS Y5, Y15, Y1
	VMOVUPS     Y0, (DI)
	VMOVUPS     Y1, 32(DI)
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, DI
	SUBQ        $16, CX
	JNZ         axpypy32loop

	VZEROUPPER
	RET

// func axpy32Kernel(alpha float32, x, y *float32, n int)
// y[i] += alpha * x[i]
TEXT ·axpy32Kernel(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y15
	MOVQ         x+8(FP), R8
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

axpy32loop:
	VMOVUPS     (DI), Y0
	VMOVUPS     32(DI), Y1
	VMOVUPS     (R8), Y2
	VMOVUPS     32(R8), Y3
	VFMADD231PS Y2, Y15, Y0
	VFMADD231PS Y3, Y15, Y1
	VMOVUPS     Y0, (DI)
	VMOVUPS     Y1, 32(DI)
	ADDQ        $64, R8
	ADDQ        $64, DI
	SUBQ        $16, CX
	JNZ         axpy32loop

	VZEROUPPER
	RET

// func add32Kernel(a, b, dst *float32, n int)
// dst[i] = a[i] + b[i]; dst may exactly alias a or b (both loads of a
// block precede its store, so in-place updates see the old values).
TEXT ·add32Kernel(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ dst+16(FP), DI
	MOVQ n+24(FP), CX

add32loop:
	VMOVUPS (R8), Y0
	VMOVUPS 32(R8), Y1
	VMOVUPS (R9), Y2
	VMOVUPS 32(R9), Y3
	VADDPS  Y2, Y0, Y0
	VADDPS  Y3, Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     add32loop

	VZEROUPPER
	RET
