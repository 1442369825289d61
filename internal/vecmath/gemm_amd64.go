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

// abtKernel2xN computes the dot products of two A rows with nq groups of
// four consecutive B rows (b points at the first, rows are k apart; k ≥ 4)
// and stores them to — or, with accumulate, adds them into — c0[:4nq] and
// c1[:4nq]. Each dot product is its 4-lane FMA prefix plus the k%4 tail
// products added in order; see the body for the exact association.
//
//go:noescape
func abtKernel2xN(a0, a1, b *float64, k, nq int, c0, c1 *float64, accumulate bool)
