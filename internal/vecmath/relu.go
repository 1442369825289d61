package vecmath

import (
	"math"
	"math/bits"
)

// The rectifier and its gate, defined elementwise as
//
//	ReLU:     y  = x  if x > 0, else +0
//	ReLUGrad: dx = dy if x > 0, else +0
//
// so NaN, −0 and every negative x (−Inf included) give +0, and +Inf passes
// through. Every body — the AVX2 table entries, the pure-Go loops behind a
// nil entry and the vector tails — produces exactly these bits
// (TestReLUContract), which makes the result independent of the build, the
// CPU and how a length splits into head and tail.

// ReLU writes y[i] = max(x[i], +0) with NaN mapped to +0. y may alias x.
func ReLU[F Float](y, x []F) {
	checkLen("ReLU", len(x), len(y))
	kn := kernelsFor[F]()
	if i := kn.head(kn.relu != nil, len(x)); i > 0 {
		kn.relu(&x[0], &y[0], i)
		x, y = x[i:], y[i:]
	}
	reluGo(y, x)
}

// ReLUGrad writes dx[i] = dy[i] where x[i] > 0 and +0 elsewhere (x ≤ 0 or
// NaN): the backward pass of ReLU, gated on its input — or equally on its
// output, which is positive exactly where the input was. dx may alias dy.
func ReLUGrad[F Float](dx, dy, x []F) {
	checkLen("ReLUGrad", len(dy), len(x))
	checkLen("ReLUGrad", len(dx), len(x))
	kn := kernelsFor[F]()
	if i := kn.head(kn.reluGrad != nil, len(x)); i > 0 {
		kn.reluGrad(&x[0], &dy[0], &dx[0], i)
		x, dy, dx = x[i:], dy[i:], dx[i:]
	}
	reluGradGo(dx, dy, x)
}

// The pure-Go loops are branch-free on the value's own bits: a compare
// mispredicts on every other activation, and a form written once for both
// precisions would widen each float32 through float64. They type-switch
// once per call, not per element.

func reluGo[F Float](y, x []F) {
	switch xs := any(x).(type) {
	case []float32:
		ys := any(y).([]float32)
		for i, v := range xs {
			b := math.Float32bits(v)
			ys[i] = math.Float32frombits(b & positive32(b))
		}
	case []float64:
		ys := any(y).([]float64)
		for i, v := range xs {
			b := math.Float64bits(v)
			ys[i] = math.Float64frombits(b & positive64(b))
		}
	}
}

func reluGradGo[F Float](dx, dy, x []F) {
	switch xs := any(x).(type) {
	case []float32:
		dys, dxs := any(dy).([]float32), any(dx).([]float32)
		for i, v := range xs {
			dxs[i] = math.Float32frombits(math.Float32bits(dys[i]) & positive32(math.Float32bits(v)))
		}
	case []float64:
		dys, dxs := any(dy).([]float64), any(dx).([]float64)
		for i, v := range xs {
			dxs[i] = math.Float64frombits(math.Float64bits(dys[i]) & positive64(math.Float64bits(v)))
		}
	}
}

// positive64 returns all ones when b is the bit pattern of a float64
// greater than zero, else 0. Those patterns are exactly 1 (the smallest
// denormal) through 0x7FF0… (+Inf): +0 is 0, NaNs with a clear sign lie
// above +Inf, and everything with the sign bit set is larger still as an
// unsigned number. b−1 wraps +0 to the top of the range, so one unsigned
// compare b−1 < +Inf decides, and its borrow is the mask.
func positive64(b uint64) uint64 {
	const inf = 0x7FF0000000000000
	_, borrow := bits.Sub64(b-1, inf, 0)
	return -borrow
}

// positive32 is positive64 for float32 bit patterns; the subtraction runs
// in 64 bits, where the borrow is simply the upper half.
func positive32(b uint32) uint32 {
	const inf = 0x7F800000
	return uint32((uint64(b-1) - inf) >> 32)
}
