//go:build amd64 && !noasm

package vecmath

// Float64-table entries of convert.go (bodies in convert_amd64.s), eight
// elements per iteration; n must be a positive multiple of wide.

// widenKernel writes y[i] = float64(x[i]).
//
//go:noescape
func widenKernel(x *float32, y *float64, n int)

// narrowKernel writes y[i] = float32(x[i]).
//
//go:noescape
func narrowKernel(x *float64, y *float32, n int)

// quantizeKernel writes q[i], the stochastic rounding of x[i]·inv under
// the uniform u[i] (QuantizeInt8).
//
//go:noescape
func quantizeKernel(x, u *float64, inv float64, q *int8, n int)
