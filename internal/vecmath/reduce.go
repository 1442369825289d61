package vecmath

import "math"

// Reductions the server step runs over client updates: the largest
// magnitude, the overflow-safe norm and the cosine similarity, plus the
// fused and paired forms the aggregation rules call. Each form returns
// exactly the bits of the plain definitions (Norm2Safe, CosineSimilarity)
// on both builds: MaxAbs has one answer in any lane partition, and every
// add chain below runs in index order, one rounding for the product and
// one for the sum — the forms only share a scan or interleave independent
// chains in time (DESIGN.md §2, exactness rule). Products that feed a sum
// are written float64(x*y), so arm64, which fuses x*y+z, rounds them as
// amd64 does.

// MaxAbs returns the largest absolute element of x (0 for empty x). NaN
// elements are skipped, so an all-NaN vector also gives 0.
func MaxAbs(x []float64) float64 {
	var m float64
	if i := kern64.head(kern64.maxAbs != nil, len(x)); i > 0 {
		m = kern64.maxAbs(&x[0], i)
		x = x[i:]
	}
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm2Safe returns the Euclidean norm of x, rescaling by the largest
// magnitude first so the squared sum cannot overflow. Use it where inputs
// are not under the caller's control (for example uploaded client deltas).
func Norm2Safe(x []float64) float64 {
	s := ScanOf(x)
	return s.Norm()
}

// Scan is what one pass over a vector leaves for its norm and its cosines:
// its largest magnitude (MaxAbs) and the square-sum of the vector rescaled
// by 1/Max. A caller that keeps a vector's Scan can take its cosines later
// with CosineRef.Cosine, which runs only the dot product's chain.
type Scan struct{ Max, Sq float64 }

// ScanOf scans x.
func ScanOf(x []float64) Scan {
	m := MaxAbs(x)
	inv := 1 / m
	var s float64
	for _, v := range x {
		sv := v * inv
		s += float64(sv * sv)
	}
	return Scan{m, s}
}

// ScanPair returns ScanOf(a) and ScanOf(b), the two square-sum chains
// interleaved in one loop. a and b must have the same length.
func ScanPair(a, b []float64) (Scan, Scan) {
	checkLen("ScanPair", len(a), len(b))
	ma, mb := MaxAbs(a), MaxAbs(b)
	ia, ib := 1/ma, 1/mb
	var sa, sb float64
	b = b[:len(a)]
	for i, v := range a {
		va := v * ia
		vb := b[i] * ib
		sa += float64(va * va)
		sb += float64(vb * vb)
	}
	return Scan{ma, sa}, Scan{mb, sb}
}

// Norm returns Norm2Safe of the scanned vector: Max itself when it is 0
// or infinite (Sq is then meaningless).
func (s Scan) Norm() float64 {
	if s.Max == 0 || math.IsInf(s.Max, 0) {
		return s.Max
	}
	return s.Max * math.Sqrt(s.Sq)
}

// CosineSimilarity returns cos(a, b) = a·b / (||a|| ||b||).
// When either vector has zero norm the similarity is defined as 0, matching
// the paper's convention that a degenerate gradient carries no direction.
// The computation rescales both vectors by their largest magnitude first so
// the result stays finite even when the raw squared norms would overflow.
func CosineSimilarity(a, b []float64) float64 {
	checkLen("CosineSimilarity", len(a), len(b))
	r := NewCosineRef(b)
	_, c := r.NormCosine(a)
	return c
}

// CosineRef is the reference side of CosineSimilarity(·, v), taken once
// for many similarities against the same v: its largest magnitude and the
// square-sum of v rescaled by it.
type CosineRef struct {
	v            []float64
	max, inv, sq float64
}

// NewCosineRef scans v for the reference side of CosineSimilarity(·, v).
// v must not change while the reference is in use.
func NewCosineRef(v []float64) CosineRef {
	s := ScanOf(v)
	return CosineRef{v: v, max: s.Max, inv: 1 / s.Max, sq: s.Sq}
}

// Max returns MaxAbs(v).
func (r *CosineRef) Max() float64 { return r.max }

// ScaledNorm returns ‖v/Max‖ as Norm2Safe(v)/Max, or 0 when v is all zero
// or its largest magnitude is infinite.
func (r *CosineRef) ScaledNorm() float64 {
	if r.max == 0 || math.IsInf(r.max, 0) {
		return 0
	}
	return Scan{r.max, r.sq}.Norm() / r.max
}

// NormCosine returns Norm2Safe(a) and CosineSimilarity(a, v) in one pass
// over a: one MaxAbs scan and two add chains (the dot product and a's
// square-sum, which both results share).
func (r *CosineRef) NormCosine(a []float64) (norm, cos float64) {
	checkLen("NormCosine", len(a), len(r.v))
	ma := MaxAbs(a)
	ia, iv := 1/ma, r.inv
	v := r.v[:len(a)]
	var dot, sq float64
	for i, x := range a {
		sx := x * ia
		dot += float64(sx * (v[i] * iv))
		sq += float64(sx * sx)
	}
	return r.result(ma, dot, sq)
}

// NormCosinePair is NormCosine of a and of b, their four add chains
// interleaved in one loop that scales each element of v once.
func (r *CosineRef) NormCosinePair(a, b []float64) (na, ca, nb, cb float64) {
	checkLen("NormCosinePair", len(a), len(r.v))
	checkLen("NormCosinePair", len(b), len(r.v))
	ma, mb := MaxAbs(a), MaxAbs(b)
	ia, ib, iv := 1/ma, 1/mb, r.inv
	v, b := r.v[:len(a)], b[:len(a)]
	var dotA, sqA, dotB, sqB float64
	for i, x := range a {
		sv := v[i] * iv
		sa := x * ia
		sb := b[i] * ib
		dotA += float64(sa * sv)
		sqA += float64(sa * sa)
		dotB += float64(sb * sv)
		sqB += float64(sb * sb)
	}
	na, ca = r.result(ma, dotA, sqA)
	nb, cb = r.result(mb, dotB, sqB)
	return
}

// Cosine returns NormCosine(a) given a's Scan s (ScanOf(a), or ScanPair's):
// only the dot product's chain runs over a.
func (r *CosineRef) Cosine(a []float64, s Scan) (norm, cos float64) {
	checkLen("Cosine", len(a), len(r.v))
	ia, iv := 1/s.Max, r.inv
	v := r.v[:len(a)]
	var dot float64
	for i, x := range a {
		dot += float64((x * ia) * (v[i] * iv))
	}
	return r.result(s.Max, dot, s.Sq)
}

// CosinePair is Cosine of a and of b, their two dot chains interleaved in
// one loop that scales each element of v once.
func (r *CosineRef) CosinePair(a, b []float64, sa, sb Scan) (na, ca, nb, cb float64) {
	checkLen("CosinePair", len(a), len(r.v))
	checkLen("CosinePair", len(b), len(r.v))
	ia, ib, iv := 1/sa.Max, 1/sb.Max, r.inv
	v, b := r.v[:len(a)], b[:len(a)]
	var dotA, dotB float64
	for i, x := range a {
		sv := v[i] * iv
		dotA += float64((x * ia) * sv)
		dotB += float64((b[i] * ib) * sv)
	}
	na, ca = r.result(sa.Max, dotA, sa.Sq)
	nb, cb = r.result(sb.Max, dotB, sb.Sq)
	return
}

// result turns one vector's largest magnitude m, rescaled dot product with
// v and rescaled square-sum into Norm2Safe's and CosineSimilarity's
// values, degenerate cases included.
func (r *CosineRef) result(m, dot, sq float64) (norm, cos float64) {
	if m == 0 {
		return 0, 0
	}
	norm = Scan{m, sq}.Norm()
	if r.max == 0 || sq == 0 || r.sq == 0 {
		return norm, 0
	}
	return norm, Clamp(dot/(math.Sqrt(sq)*math.Sqrt(r.sq)), -1, 1)
}
