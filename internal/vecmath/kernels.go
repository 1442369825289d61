package vecmath

// Float is the compute-precision constraint of the generic drivers.
// float32 and float64 are distinct gcshapes, so every driver is stencilled
// once per precision and the float64 instantiation is the same machine
// loop the pre-generic float64 function compiled to.
type Float interface {
	float32 | float64
}

// kernels is the per-precision microkernel table the generic drivers run
// over. Each entry is an AVX2+FMA assembly body; a nil entry means there is
// no assembly for that operation at that precision (or on this build or
// CPU), and the driver runs its pure-Go loop instead. The drivers own all
// edge handling, so only the assembly bodies and their declarations are
// written per precision.
//
// wide is the element count of two YMM vectors (8 float64 / 16 float32):
// the column width of the main GEMM tile and the stride of the level-1
// kernels. One vector (wide/2) is the width of the half tile and the
// reduction stride of the ABT kernel.
type kernels[F Float] struct {
	wide int

	// Gemm tiles: 4×wide and 1×wide blocks of C += A·B, and the
	// 4×(wide/2) and 1×(wide/2) half blocks for the column remainder.
	// Only float32 has half blocks: at float64 the half tile would be a
	// single 4-lane vector, no better than the scalar edge.
	gemm4, gemm4Half func(a0, a1, a2, a3, b *F, ldb int, c *F, ldc, k int)
	gemm1, gemm1Half func(a, b *F, ldb int, c *F, k int)

	// GemmATB tiles, same shapes, reducing over the rows of A and B.
	atb4, atb4Half func(a *F, lda int, b *F, ldb int, c *F, ldc, m int)
	atb1, atb1Half func(a *F, lda int, b *F, ldb int, c *F, m int)

	// abt2 is a whole row pair of GemmABT: the dot products of two A rows
	// with nq groups of four consecutive length-k B rows, stored to (or
	// added into) c0[:4nq] and c1[:4nq]. k must be at least wide/2; each
	// dot product reduces its whole-vector prefix in wide/2 FMA lanes and
	// adds the tail products in order.
	abt2 func(a0, a1, b *F, k, nq int, c0, c1 *F, accumulate bool)

	// Level-1 bodies over the first n elements, n a positive multiple of
	// wide. The float64 axpy, add and sub bodies multiply, then add, with
	// no FMA, so they round exactly as the scalar loops do (DESIGN.md §2,
	// exactness rule); the float32 axpy fuses.
	axpy     func(alpha F, x, y *F, n int)
	axpypy   func(a F, x *F, b F, y, z *F, n int)
	add      func(a, b, dst *F, n int)
	sub      func(a, b, dst *F, n int)
	subScale func(s F, a, b, dst *F, n int)
	relu     func(x, y *F, n int)
	reluGrad func(x, dy, dx *F, n int)

	// The precision bridge and the int8 stochastic rounding (convert.go),
	// level-1 bodies at the float64 stride. They are filled in the float64
	// table only: each is one operation, not one per precision.
	widen    func(x *float32, y *float64, n int)
	narrow   func(x *float64, y *float32, n int)
	quantize func(x, u *float64, inv float64, q *int8, n int)

	// maxAbs is MaxAbs over the first n elements (reduce.go), float64
	// only: the largest |x[i]|, NaN skipped, +0 for none.
	maxAbs func(x *float64, n int) float64

	// The CNN's per-sample bodies, float64 only. addCol adds v[i] to the n
	// elements of row i for each of m rows (n a positive multiple of
	// wide/2), one add per element as the scalar loop does. pool2 is n
	// blocks of the 2×2 max-pool (pool.go).
	addCol func(a, v *F, m, n int)
	pool2  func(x, y *F, arg *int, lanes *[4]int, inW, n int)

	// The convolution's packing and its adjoint (gather.go), float64 only.
	// gather sets dst[i] = src[idx[i]] for i < n, n a positive multiple of
	// four. gatherSum sums n blocks of four outputs over a SumTable's
	// lane-interleaved rows, each lane from +0 in slot order.
	gather    func(dst, src *F, idx *int32, n int)
	gatherSum func(dst, src *F, rows *int32, slots, n int)
}

// kernelsFor returns the table of the instantiating precision.
func kernelsFor[F Float]() *kernels[F] {
	if k, ok := any(&kern64).(*kernels[F]); ok {
		return k
	}
	return any(&kern32).(*kernels[F])
}

// head is the length of the prefix of an n-element vector that a level-1
// assembly body handles (0 when there is none or n is shorter than one
// stride); the driver's scalar loop finishes the tail.
func (k *kernels[F]) head(have bool, n int) int {
	if !have || n < k.wide {
		return 0
	}
	return n &^ (k.wide - 1)
}
