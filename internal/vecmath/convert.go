package vecmath

import (
	"math"
	"unsafe"
)

// The conversions out of float64: to float32 and back (the fl precision
// bridge, DESIGN.md §10) and to stochastically rounded signed bytes (the
// int8 uplink codec and its error-feedback step, DESIGN.md §7). Each
// driver runs its float64-table entry over the whole-stride head and its
// pure-Go loop over the rest; the two produce the same bits on every input
// (TestWidenNarrowContract, TestQuantizeInt8Contract,
// TestInt8EFPassesContract), so the result depends on neither the build
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

// quantizeGo is QuantizeInt8's pure-Go loop.
func quantizeGo(q []int8, x []float64, inv float64, u []float64) {
	u = u[:len(x)]
	for i, xv := range x {
		q[i] = quantize1(float64(xv*inv), u[i])
	}
}

// quantize1 is QuantizeInt8 of one scaled value v. Inside (−127, 127) the
// floor converts to an int exactly and the round-up, an increment the
// compiler turns into a conditional move (on an int, not on an int8),
// stays within ±127. Every finite v outside rounds to ±127 and a
// non-finite one to 0, on a branch a codec's scaled chunk takes at most at
// its maximum. The callers round v (float64(x*inv)) so that arm64 cannot
// fuse it into v − f.
func quantize1(v, u float64) int8 {
	if !(math.Abs(v) < 127) {
		switch {
		case v-v != 0: // NaN or ±Inf
			return 0
		case v > 0:
			return 127
		}
		return -127
	}
	f := math.Floor(v)
	k := int(f)
	if u < v-f {
		k++
	}
	return int8(k)
}

// FoldMaxAbs is the first pass of the int8 error-feedback step over one
// chunk: it folds the residual e into x (x[i] += float64(e[i])) and returns
// the largest |x[i]| of the result over its non-NaN elements (MaxAbs's
// contract) and the number of NaN elements. With e nil it only scans x.
func FoldMaxAbs[E Float](x []float64, e []E) (m float64, nans int) {
	if e != nil {
		checkLen("FoldMaxAbs", len(e), len(x))
	}
	if i := kern64.head(kern64.foldMax != nil, len(x)); i > 0 {
		var ep unsafe.Pointer
		mode := foldScan
		if e != nil {
			ep, mode = unsafe.Pointer(&e[0]), foldF64
			if unsafe.Sizeof(e[0]) == 4 {
				mode = foldF32
			}
			e = e[i:]
		}
		m, nans = kern64.foldMax(&x[0], ep, mode, i)
		x = x[i:]
	}
	if e == nil {
		for _, v := range x {
			m, nans = maxNaN(m, nans, v)
		}
		return m, nans
	}
	e = e[:len(x)]
	for i, v := range x {
		v += float64(e[i])
		x[i] = v
		m, nans = maxNaN(m, nans, v)
	}
	return m, nans
}

// The foldMax entry's modes: scan x, or fold a float64 or float32 residual.
const (
	foldScan = iota
	foldF64
	foldF32
)

// maxNaN folds v into FoldMaxAbs's running maximum and NaN count.
func maxNaN(m float64, nans int, v float64) (float64, int) {
	if a := math.Abs(v); a > m {
		m = a
	}
	if v != v {
		nans++
	}
	return m, nans
}

// QuantizeDecode is the second pass of the int8 error-feedback step over
// one chunk: it rounds x into q as QuantizeInt8(q, x, inv, u) does, then
// replaces each x[i] with its decoded value d = scale·q[i] and sets e[i]
// to the residual x[i] − d, reset to 0 where it is not finite and only
// then converted to E. The decoded value and the residual are each one
// rounding, as Int8.Decode and a separate subtraction give them.
func QuantizeDecode[E Float](q []int8, x []float64, e []E, inv, scale float64, u []float64) {
	checkLen("QuantizeDecode", len(q), len(x))
	checkLen("QuantizeDecode", len(e), len(x))
	checkLen("QuantizeDecode", len(u), len(x))
	if i := kern64.head(kern64.quantDec != nil, len(x)); i > 0 {
		kern64.quantDec(&x[0], &u[0], inv, scale, &q[0], unsafe.Pointer(&e[0]), unsafe.Sizeof(e[0]) == 4, i)
		q, x, e, u = q[i:], x[i:], e[i:], u[i:]
	}
	quantizeDecodeGo(q, x, e, inv, scale, u)
}

// quantizeDecodeGo is QuantizeDecode's pure-Go loop, in the assembly
// body's order.
func quantizeDecodeGo[E Float](q []int8, x []float64, e []E, inv, scale float64, u []float64) {
	q, e, u = q[:len(x)], e[:len(x)], u[:len(x)]
	for i, xv := range x {
		qi := quantize1(float64(xv*inv), u[i])
		d := float64(scale * float64(qi))
		r := xv - d
		if r-r != 0 { // NaN or ±Inf
			r = 0
		}
		q[i], x[i], e[i] = qi, d, E(r)
	}
}
