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

// axpyKernel accumulates y[i] += alpha*x[i] over the first n elements
// with AVX2, multiplying then adding (no FMA), so every element rounds as
// the scalar loop does; n must be a positive multiple of 8.
//
//go:noescape
func axpyKernel(alpha float64, x, y *float64, n int)

// addKernel writes dst[i] = a[i]+b[i] over the first n elements with
// AVX2; n must be a positive multiple of 8. dst may exactly alias a or b.
//
//go:noescape
func addKernel(a, b, dst *float64, n int)

// subKernel writes dst[i] = a[i]-b[i] over the first n elements with
// AVX2; n must be a positive multiple of 8. dst may exactly alias a or b.
//
//go:noescape
func subKernel(a, b, dst *float64, n int)

// fillKernel sets the first n elements of dst to v with AVX2; n must be a
// positive multiple of 8.
//
//go:noescape
func fillKernel(dst *float64, v float64, n int)
