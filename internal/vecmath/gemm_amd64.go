//go:build amd64 && !noasm

package vecmath

// Float64 GEMM microkernel declarations (bodies in gemm_amd64.s); the
// drivers in matrix.go reach them through the kernel table.

// gemmKernel4x8 accumulates a 4×8 tile of C += A·B: the four A-row
// pointers advance one element per step, b advances by ldb elements
// (one B row), and after k steps the tile is added into C (row stride
// ldc). All pointers must have k (a), 8+ (b, c) elements available.
//
//go:noescape
func gemmKernel4x8(a0, a1, a2, a3, b *float64, ldb int, c *float64, ldc, k int)

// gemmKernel1x8 is the single-row variant of gemmKernel4x8 for m%4 rows.
//
//go:noescape
func gemmKernel1x8(a, b *float64, ldb int, c *float64, k int)

// atbKernel4x8 accumulates a 4×8 tile of C += Aᵀ·B: a points at the four
// consecutive elements A[i][p..p+3] and advances by lda per step (one A
// row), b advances by ldb. After m steps the tile is added into C.
//
//go:noescape
func atbKernel4x8(a *float64, lda int, b *float64, ldb int, c *float64, ldc, m int)

// atbKernel1x8 is the single-row variant of atbKernel4x8 for k%4 rows.
//
//go:noescape
func atbKernel1x8(a *float64, lda int, b *float64, ldb int, c *float64, m int)

// abtKernel2x4 computes the eight dot products of two A rows with four B
// rows over k elements (k must be a positive multiple of 4), writing
// {a0·b0, a0·b1, a0·b2, a0·b3, a1·b0, a1·b1, a1·b2, a1·b3} into out.
//
//go:noescape
func abtKernel2x4(a0, a1, b0, b1, b2, b3 *float64, k int, out *[8]float64)

// abt2x4 is the table entry for abtKernel2x4. It returns the tile by value
// so the driver's copy stays on the stack: an address passed through a
// func value always escapes, and GemmABT must not allocate.
func abt2x4(a0, a1, b0, b1, b2, b3 *float64, k int) (out [8]float64) {
	abtKernel2x4(a0, a1, b0, b1, b2, b3, k, &out)
	return
}
