//go:build amd64 && !noasm

package vecmath

// axpypy32Kernel accumulates z[i] += a*x[i] + b*y[i] over the first n
// elements with AVX2+FMA; n must be a positive multiple of 16.
//
//go:noescape
func axpypy32Kernel(a float32, x *float32, b float32, y, z *float32, n int)

// axpy32Kernel accumulates y[i] += alpha*x[i] over the first n elements
// with AVX2+FMA; n must be a positive multiple of 16.
//
//go:noescape
func axpy32Kernel(alpha float32, x, y *float32, n int)

// add32Kernel writes dst[i] = a[i]+b[i] over the first n elements with
// AVX2; n must be a positive multiple of 16. dst may exactly
// alias a or b.
//
//go:noescape
func add32Kernel(a, b, dst *float32, n int)
