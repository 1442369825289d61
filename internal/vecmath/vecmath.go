// Package vecmath provides the flat-vector and small-matrix primitives used
// throughout the repository. Federated-learning algorithms in this codebase
// exchange model updates as flat []float64 slices, so the hot operations are
// BLAS-level-1 style kernels (axpy, dot, norms, cosine similarity) plus the
// row-major GEMM kernels (matrix.go) that the neural-network substrate in
// internal/nn lowers every dense, convolutional (via im2col), and recurrent
// layer onto.
//
// # GEMM kernels and knobs
//
// Gemm, GemmATB, and GemmABT are register-tiled matrix products with an
// accumulate flag (C = A·B or C += A·B), generic over the compute
// precision: each is one driver over a per-precision microkernel table
// (kernels.go). On amd64 with AVX2+FMA the main tiles run in assembly
// microkernels (gemm_amd64.s, gemm32_amd64.s), detected once via CPUID;
// everywhere else, and for tile remainders, pure-Go 2×4 register tiles
// are used. The level-1 drivers the local-training loop calls at both
// precisions (Zero, Add, Sub, AXPY, AXPYPY, SubScale, ReLU, ReLUGrad,
// GemmBias, MaxPool2x2) are generic over the same table; everything
// the server side runs (norms, cosine similarity, sparse aggregation) is
// float64 only, because client updates are widened once at the upload
// boundary.
//
// The tunable knobs are the constants in matrix.go: gemmKC
// (reduction-dimension cache block of the pure-Go Gemm) and
// gemmATBPanelMin (reduction length at which the pure-Go GemmATB switches
// to rank-1 row panels); gemmMR/gemmNR merely document the fixed 2×4 tile
// shape baked into the unrolled loop bodies. After changing a knob, run
//
//	go test ./internal/vecmath/ && go test -run '^$' -bench 'BenchmarkGEMM|BenchmarkGradEvalShare' ./internal/vecmath/ ./internal/nn/
//
// to re-validate numerics and measure the effect; BenchmarkGEMM reports
// flops/s for the shapes the substrate actually runs. DESIGN.md §2
// documents the blocking scheme and the layer/scratch/engine contract
// built on top of these kernels.
//
// All functions treat nil and empty slices as zero-length vectors. Functions
// that combine two vectors panic when the lengths differ: a length mismatch
// is a programming error in this codebase (parameter vectors for one model
// always have one fixed length), not a recoverable condition.
package vecmath

import (
	"fmt"
	"math"
)

// checkLen panics when two vectors that must be conformable are not.
func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("vecmath: %s: length mismatch %d != %d", op, a, b))
	}
}

// Zero sets every element of x to 0.
func Zero[F Float](x []F) {
	for i := range x {
		x[i] = 0
	}
}

// Clone returns a newly allocated copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Add computes dst[i] = a[i] + b[i]. dst may alias a or b. The assembly
// bodies produce the same bits as the scalar loop — plain adds, no FMA —
// so Add does not depend on the asm/noasm build.
func Add[F Float](dst, a, b []F) {
	checkLen("Add", len(a), len(b))
	checkLen("Add", len(dst), len(a))
	kn := kernelsFor[F]()
	if i := kn.head(kn.add != nil, len(dst)); i > 0 {
		kn.add(&a[0], &b[0], &dst[0], i)
		dst, a, b = dst[i:], a[i:], b[i:]
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst[i] = a[i] - b[i]. dst may alias a or b. The assembly
// body (float64 only) is a plain subtract, bit-identical to the loop.
func Sub[F Float](dst, a, b []F) {
	checkLen("Sub", len(a), len(b))
	checkLen("Sub", len(dst), len(a))
	kn := kernelsFor[F]()
	if i := kn.head(kn.sub != nil, len(dst)); i > 0 {
		kn.sub(&a[0], &b[0], &dst[0], i)
		dst, a, b = dst[i:], a[i:], b[i:]
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// AXPY computes y[i] += alpha * x[i] (the classic BLAS axpy kernel). The
// float64 assembly body multiplies, then adds, so it matches the scalar
// loop bit for bit; the float32 body uses FMA, so there results match the
// pure-Go tail only to within one rounding of the product term.
func AXPY[F Float](alpha F, x, y []F) {
	checkLen("AXPY", len(x), len(y))
	kn := kernelsFor[F]()
	if i := kn.head(kn.axpy != nil, len(x)); i > 0 {
		kn.axpy(alpha, &x[0], &y[0], i)
		x, y = x[i:], y[i:]
	}
	for i, xi := range x {
		y[i] += alpha * xi
	}
}

// Scale computes x[i] *= alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	checkLen("Dot", len(a), len(b))
	var s float64
	for i, ai := range a {
		s += ai * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Clamp returns v limited to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AllFinite reports whether every element of x is a finite number. FL runs
// use this to detect divergence (the paper's convergence-failure events).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
