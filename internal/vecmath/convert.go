package vecmath

import "math"

// The conversions out of float64: to float32 and back (the fl precision
// bridge, DESIGN.md §10) and to stochastically rounded signed bytes (the
// int8 uplink codec, DESIGN.md §7). Each driver runs its float64-table
// entry over the whole-stride head and its pure-Go loop over the rest; the
// two produce the same bits on every input (TestWidenNarrowContract,
// TestQuantizeInt8Contract), so the result depends on neither the build
// nor how a length splits.

// Widen converts x into dst element-wise (exact: every float32 value is
// representable as a float64). Widen and Narrow are the only conversion
// points between the two precisions.
func Widen(dst []float64, x []float32) {
	checkLen("Widen", len(dst), len(x))
	if i := kern64.head(kern64.widen != nil, len(x)); i > 0 {
		kern64.widen(&x[0], &dst[0], i)
		dst, x = dst[i:], x[i:]
	}
	for i, v := range x {
		dst[i] = float64(v)
	}
}

// Narrow converts x into dst element-wise, rounding to nearest-even.
// Narrow∘Widen is the identity, which the fl bridge buffers rely on to
// round-trip hook state through float64 without drift.
func Narrow(dst []float32, x []float64) {
	checkLen("Narrow", len(dst), len(x))
	if i := kern64.head(kern64.narrow != nil, len(x)); i > 0 {
		kern64.narrow(&x[0], &dst[0], i)
		dst, x = dst[i:], x[i:]
	}
	for i, v := range x {
		dst[i] = float32(v)
	}
}

// QuantizeInt8 stochastically rounds x·inv to signed bytes under the
// uniforms u in [0, 1): with v = x[i]·inv and f = ⌊v⌋,
//
//	q[i] = clamp(f + (1 if u[i] < v − f else 0), −127, 127)
//
// and q[i] = 0 where v is not finite, whatever u[i] holds.
func QuantizeInt8(q []int8, x []float64, inv float64, u []float64) {
	checkLen("QuantizeInt8", len(q), len(x))
	checkLen("QuantizeInt8", len(u), len(x))
	if i := kern64.head(kern64.quantize != nil, len(x)); i > 0 {
		kern64.quantize(&x[0], &u[0], inv, &q[0], i)
		q, x, u = q[i:], x[i:], u[i:]
	}
	quantizeGo(q, x, inv, u)
}

// quantizeGo is QuantizeInt8's pure-Go loop. Inside (−128, 128) the floor
// converts to an int exactly and the round-up is an integer increment, which
// the compiler turns into a conditional move; the rest (non-finite v, and
// magnitudes the clamp decides alone) takes a branch that is never taken on
// a codec's scaled chunk.
func quantizeGo(q []int8, x []float64, inv float64, u []float64) {
	for i, xv := range x {
		v := xv * inv
		if !(math.Abs(v) < 128) {
			q[i] = saturate8(v)
			continue
		}
		f := math.Floor(v)
		k := int(f)
		if u[i] < v-f {
			k++
		}
		q[i] = int8(min(max(k, -127), 127))
	}
}

// saturate8 is QuantizeInt8 of a v outside (−128, 128).
func saturate8(v float64) int8 {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return 0
	case v > 0:
		return 127
	}
	return -127
}
