package compress

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// TopK keeps the k = max(1, round(Frac·d)) largest-magnitude coordinates
// of the update as (index, value) pairs, in ascending index order. The
// selection is fully deterministic: the k-th magnitude τ is found by a
// median-of-three quickselect over the magnitudes at or above a sampled
// lower bound (all of them when the bound fails or d is small), gathered
// into a caller-provided scratch, and ties at τ are broken by the smallest
// index.
//
// Non-finite contract: NaN coordinates are dropped — never selected,
// never transmitted — so one poisoned coordinate cannot claim a top-k
// slot every round and spread NaN through aggregation before the
// divergence guard can attribute the halt; the payload then carries
// fewer than k pairs and the decode yields 0 at the dropped positions
// (EncodeEF's residual reset discards the matching unrecoverable
// residual mass). ±Inf propagates: it is a genuine magnitude, sorts
// above everything finite, and arrives at the server where the
// divergence guard halts the run with the right attribution.
type TopK struct {
	// Frac is the kept-coordinate fraction, in (0, 1].
	Frac float64
}

// Name implements Codec.
func (c *TopK) Name() string { return fmt.Sprintf("topk:%g", c.Frac) }

// K returns the kept-coordinate count for a d-length vector.
func (c *TopK) K(d int) int {
	k := int(c.Frac*float64(d) + 0.5)
	return min(max(k, 1), d)
}

// Grow implements Codec, with room for one pair past k (see emit).
func (c *TopK) Grow(p *Payload, d int) {
	k := c.K(d) + 1
	if cap(p.Idx) < k {
		p.Idx = make([]int32, 0, k)
	}
	if cap(p.Val) < k {
		p.Val = make([]float64, 0, k)
	}
}

// Encode implements Codec. scratch must have len(x) capacity; it holds
// the candidates and magnitudes the selection sees.
func (c *TopK) Encode(p *Payload, x []float64, _ *rng.RNG, scratch []float64) {
	emit[float64](c, p, x, nil, scratch)
}

// emit writes the kept coordinates of x into p in ascending index order:
// every magnitude above τ, then those at τ while tie slots remain. Given a
// residual e (threshold folded it into x), it zeroes e where a coordinate
// is kept and decodes p into x. Each candidate is written into the next
// slot, which advances when it is kept, so only a tie at τ takes a branch.
func emit[E float64 | float32](c *TopK, p *Payload, x []float64, e []E, scratch []float64) {
	tau, ties, cand := threshold(c, p, x, e, scratch)
	idx, val := p.Idx[:cap(p.Idx)], p.Val[:cap(p.Val)]
	j := 0
	for _, w := range cand {
		i := math.Float64bits(w)
		v := x[i]
		m := math.Abs(v)
		keep := m > tau
		if m == tau {
			if ties == 0 {
				continue
			}
			ties, keep = ties-1, true
		}
		idx[j], val[j] = int32(i), v
		if keep {
			j++
		}
	}
	p.Idx, p.Val = idx[:j], val[:j]
	if e != nil {
		for _, i := range p.Idx {
			e[i] = 0
		}
		c.Decode(x, p)
	}
}

const topkSample = 128 // magnitudes threshold samples to bound τ

// threshold readies p for k = K(d) pairs and returns τ, the k-th largest
// magnitude of x+e with NaN as 0; how many coordinates at τ are kept; and
// the candidates, ascending indices (as float64 bits, in scratch) that
// cover every magnitude ≥ τ and no NaN. A non-nil e is folded into x.
//
// The bound t0 is the r-th largest of a strided sample of x+e, r =
// 2km/d + 4, or 0 for small d or k. τ is the k-th largest magnitude of the
// compacted indices, gathered beside them (or over them, and compacted
// again at τ). If fewer than k reach t0 > 0, t0 = 0 keeps every non-NaN
// coordinate; NaN's zeros rank below them all, so τ = 0 if that is ≤ k.
func threshold[E float64 | float32](c *TopK, p *Payload, x []float64, e []E, scratch []float64) (tau float64, ties int, cand []float64) {
	d := len(x)
	k := c.K(d)
	c.Grow(p, d)
	p.Form, p.N, p.ChunkLen = KindTopK, d, 0
	p.Q, p.Scale = p.Q[:0], p.Scale[:0]
	scratch = scratch[:d]
	t0 := 0.0
	if r := 2*k*topkSample/max(d, 1) + 4; d >= 4*topkSample && r < topkSample {
		var s [topkSample]float64
		for j := range s {
			i := j * d / topkSample
			v := x[i]
			if e != nil {
				v += float64(e[i])
			}
			if a := math.Abs(v); a == a {
				s[j] = a // NaN stays at 0 here and never reaches compact's set
			}
		}
		t0 = kthLargest(s[:], r)
	}
	var n int
	if e != nil {
		n = foldCompact(x, e, t0, scratch)
	} else {
		n = compact(x, t0, scratch)
	}
	if n < k && t0 > 0 {
		t0, n = 0, compact(x, 0, scratch)
	}
	if cand = scratch[:n]; t0 == 0 && n <= k {
		return 0, k, cand
	}
	mags := scratch[n:min(2*n, d)]
	if 2*n > d {
		mags = cand
	}
	for j, w := range cand {
		mags[j] = math.Abs(x[math.Float64bits(w)])
	}
	tau, ties = kthLargest(mags[:n], k), k
	for _, m := range mags[:n] {
		if m > tau {
			ties--
		}
	}
	if 2*n > d {
		cand = scratch[:compact(x, tau, scratch)]
	}
	return tau, ties, cand
}

// compact writes the indices (as float64 bits) of the coordinates of x
// whose magnitude bits b satisfy t0 ≤ b ≤ +Inf (b − t0 ≤ +Inf − t0; NaN
// fails) to the front of cand, advancing by the compare, and counts them.
func compact(x []float64, t0 float64, cand []float64) int {
	lo, n := math.Float64bits(t0), 0
	for i, v := range x {
		cand[n] = math.Float64frombits(uint64(i))
		if math.Float64bits(v)&^signBit-lo <= expMask-lo {
			n++
		}
	}
	return n
}

// foldCompact is compact over x+e; it stores x+e into x and, reset to 0
// where it is not finite, into e.
func foldCompact[E float64 | float32](x []float64, e []E, t0 float64, cand []float64) int {
	e = e[:len(x)]
	lo, n := math.Float64bits(t0), 0
	for i, v := range x {
		v += float64(e[i])
		x[i] = v
		cand[n] = math.Float64frombits(uint64(i))
		b := math.Float64bits(v) &^ signBit
		if b-lo <= expMask-lo {
			n++
		}
		if b >= expMask {
			v = 0
		}
		e[i] = E(v)
	}
	return n
}

// Decode implements Codec: scatter the kept coordinates over zeros.
func (c *TopK) Decode(dst []float64, p *Payload) {
	vecmath.Zero(dst)
	for j, i := range p.Idx {
		dst[i] = p.Val[j]
	}
}

// kthLargest returns the k-th largest element of a (1 ≤ k ≤ len(a)),
// permuting a in place. The elements are magnitudes (not NaN), whose bits
// order as they do. Median-of-three pivots and one Lomuto pass a level
// split off the elements at or below the pivot; a range with none above
// it takes a second pass that splits off the pivot-equal run, so
// duplicates still shrink the range. At most 16 left, insertion sort.
func kthLargest(a []float64, k int) float64 {
	target := len(a) - k // rank in ascending order
	lo, hi := 0, len(a)
	for hi-lo > 16 {
		x, y, z := math.Float64bits(a[lo]), math.Float64bits(a[lo+(hi-lo)/2]), math.Float64bits(a[hi-1])
		bits := max(min(x, y), min(max(x, y), z))
		le := lo + lomuto(a[lo:hi], bits+1)
		switch {
		case target >= le:
			lo = le
		case le < hi:
			hi = le
		default:
			lt := lo + lomuto(a[lo:hi], bits)
			if target >= lt {
				return math.Float64frombits(bits)
			}
			hi = lt
		}
	}
	for i := lo + 1; i < hi; i++ {
		v, j := a[i], i
		for ; j > lo && a[j-1] > v; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
	return a[target]
}

// lomuto moves the elements of a whose bits are below bound to its front
// and returns their count: each is swapped with the store slot, which
// advances by the borrow of bits − bound (both < 2⁶³), not by a branch.
func lomuto(a []float64, bound uint64) int {
	s := 0
	for i, v := range a {
		a[i] = a[s]
		a[s] = v
		s += int((math.Float64bits(v) - bound) >> 63)
	}
	return s
}

// expMask selects a float64's exponent field (+Inf), signBit its sign.
const expMask, signBit = 0x7ff0_0000_0000_0000, 1 << 63
