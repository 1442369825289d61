//go:build amd64 && !noasm

package vecmath

import "unsafe"

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

// foldMaxKernel is FoldMaxAbs: in mode foldF64 or foldF32 it adds the
// float64 or float32 residual at e into x first; in mode foldScan e is
// unused and x is only read.
//
//go:noescape
func foldMaxKernel(x *float64, e unsafe.Pointer, mode, n int) (m float64, nans int)

// quantDecKernel is QuantizeDecode, storing the residual as float32 at e
// when e32 is set and as float64 otherwise.
//
//go:noescape
func quantDecKernel(x, u *float64, inv, scale float64, q *int8, e unsafe.Pointer, e32 bool, n int)
