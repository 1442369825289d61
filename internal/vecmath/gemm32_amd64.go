//go:build amd64 && !noasm

package vecmath

// Float32 GEMM microkernel declarations (bodies in gemm32_amd64.s). The
// main tiles stream two 8-wide YMM vectors per C row (16 columns); the x8
// variants are the table's half blocks for the 8..15-column remainder, so
// the substrate's narrow dense layers (8–48 columns) stay on the vector
// path instead of falling to the scalar edge.

// gemm32Kernel4x16 accumulates a 4×16 tile of C += A·B: the four A-row
// pointers advance one element per step, b advances by ldb elements
// (one B row), and after k steps the tile is added into C (row stride
// ldc). All pointers must have k (a), 16+ (b, c) elements available.
//
//go:noescape
func gemm32Kernel4x16(a0, a1, a2, a3, b *float32, ldb int, c *float32, ldc, k int)

// gemm32Kernel1x16 is the single-row variant of gemm32Kernel4x16 for m%4
// rows.
//
//go:noescape
func gemm32Kernel1x16(a, b *float32, ldb int, c *float32, k int)

// gemm32Kernel4x8 is the one-vector (8-column) variant of
// gemm32Kernel4x16 for the 8..15-column remainder.
//
//go:noescape
func gemm32Kernel4x8(a0, a1, a2, a3, b *float32, ldb int, c *float32, ldc, k int)

// gemm32Kernel1x8 is the single-row, one-vector variant.
//
//go:noescape
func gemm32Kernel1x8(a, b *float32, ldb int, c *float32, k int)

// atb32Kernel4x16 accumulates a 4×16 tile of C += Aᵀ·B: a points at the
// four consecutive elements A[i][p..p+3] and advances by lda per step
// (one A row), b advances by ldb. After m steps the tile is added into C.
//
//go:noescape
func atb32Kernel4x16(a *float32, lda int, b *float32, ldb int, c *float32, ldc, m int)

// atb32Kernel1x16 is the single-row variant of atb32Kernel4x16 for k%4
// rows.
//
//go:noescape
func atb32Kernel1x16(a *float32, lda int, b *float32, ldb int, c *float32, m int)

// atb32Kernel4x8 is the one-vector (8-column) variant of atb32Kernel4x16.
//
//go:noescape
func atb32Kernel4x8(a *float32, lda int, b *float32, ldb int, c *float32, ldc, m int)

// atb32Kernel1x8 is the single-row, one-vector variant.
//
//go:noescape
func atb32Kernel1x8(a *float32, lda int, b *float32, ldb int, c *float32, m int)

// abt32Kernel2xN is abtKernel2xN at float32: 8-lane prefix, k%8 tail,
// k ≥ 8.
//
//go:noescape
func abt32Kernel2xN(a0, a1, b *float32, k, nq int, c0, c1 *float32, accumulate bool)
