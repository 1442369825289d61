//go:build amd64 && !noasm

package vecmath

// maxAbsKernel returns the largest |x[i]| over the first n elements,
// skipping NaN, with AVX2 (body in reduce_amd64.s); n must be a positive
// multiple of 8.
//
//go:noescape
func maxAbsKernel(x *float64, n int) float64
