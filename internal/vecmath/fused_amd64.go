//go:build amd64 && !noasm

package vecmath

// axpypyKernel accumulates z[i] += a*x[i] + b*y[i] over the first n
// elements with AVX2+FMA; n must be a positive multiple of 8.
//
//go:noescape
func axpypyKernel(a float64, x *float64, b float64, y, z *float64, n int)

// subScaleKernel writes dst[i] = s*(a[i]-b[i]) over the first n elements
// with AVX2; n must be a positive multiple of 8.
//
//go:noescape
func subScaleKernel(s float64, a, b, dst *float64, n int)
