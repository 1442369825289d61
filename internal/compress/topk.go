package compress

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// TopK keeps the k = max(1, round(Frac·d)) largest-magnitude coordinates
// of the update as (index, value) pairs, in ascending index order. The
// selection is fully deterministic: the k-th magnitude τ is found by
// median-of-three quickselect over the magnitudes at or above a sampled
// lower bound (all of them when the bound fails or d is small), copied
// into a caller-provided scratch, and ties at τ are broken by the
// smallest index.
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

// Grow implements Codec.
func (c *TopK) Grow(p *Payload, d int) {
	k := c.K(d)
	if cap(p.Idx) < k {
		p.Idx = make([]int32, 0, k)
	}
	if cap(p.Val) < k {
		p.Val = make([]float64, 0, k)
	}
}

// absTotal maps a coordinate to its selection magnitude under a total
// order: NaN maps to 0 so the selection's comparisons stay consistent
// (no NaN ever reaches the comparison loops). NaN coordinates are
// additionally skipped by every emit loop — a zero magnitude could still
// win a tie slot when the threshold is 0 — which implements the drop-NaN
// contract documented on TopK.
func absTotal(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return math.Abs(v)
}

// Encode implements Codec. scratch must have len(x) capacity; it holds
// the magnitude copy the selection permutes.
func (c *TopK) Encode(p *Payload, x []float64, _ *rng.RNG, scratch []float64) {
	d := len(x)
	k := c.K(d)
	c.Grow(p, d)
	p.Form, p.N, p.ChunkLen = KindTopK, d, 0
	p.Q, p.Scale = p.Q[:0], p.Scale[:0]
	idx, val := p.Idx[:0], p.Val[:0]
	if k == d {
		for i, v := range x {
			if math.IsNaN(v) {
				continue
			}
			idx = append(idx, int32(i))
			val = append(val, v)
		}
		p.Idx, p.Val = idx, val
		return
	}

	// cand holds every magnitude ≥ tau, so counting over it counts over x.
	cand := candidates(x, k, scratch[:d])
	tau := kthLargest(cand, k)
	above := 0
	for _, m := range cand {
		if m > tau {
			above++
		}
	}
	// Keep everything strictly above the threshold and fill the remaining
	// slots with threshold-magnitude coordinates in index order; the scan
	// emits ascending indices. Most coordinates fall below tau, so one
	// compare rejects them. A NaN holds a rank (its 0 magnitude went
	// through the selection) but is dropped here — the compare is false
	// for |NaN| — so the payload may carry fewer than k pairs.
	ties := k - above
	for i, v := range x {
		if m := math.Abs(v); m >= tau {
			if m == tau {
				if ties == 0 {
					continue
				}
				ties--
			}
			idx = append(idx, int32(i))
			val = append(val, v)
		}
	}
	p.Idx, p.Val = idx, val
}

// Decode implements Codec: scatter the kept coordinates over zeros.
func (c *TopK) Decode(dst []float64, p *Payload) {
	vecmath.Zero(dst)
	for j, i := range p.Idx {
		dst[i] = p.Val[j]
	}
}

// topkSample is how many magnitudes candidates samples to bound the
// threshold from below.
const topkSample = 128

// candidates returns the magnitudes the threshold selection must see: a
// prefix of mags (len(x) long) that holds every magnitude at or above the
// k-th largest, and at least k of them. For d ≥ 4·topkSample it takes a
// strided sample of topkSample magnitudes, keeps the sample's r-th
// largest as a lower bound t0 with r = 2km/d + 4 (twice the sample's
// expected share of the top k, plus a margin), and compacts the
// magnitudes ≥ t0 in one pass — about 12 % of d at Frac .05. Every
// magnitude is a candidate when d is small, when k is near d/2, when t0
// is 0 (NaN counts as magnitude 0, and the compaction drops NaN), or when
// fewer than k magnitudes reach t0 (an unlucky sample).
func candidates(x []float64, k int, mags []float64) []float64 {
	d := len(x)
	if r := 2*k*topkSample/d + 4; d >= 4*topkSample && r < topkSample {
		var s [topkSample]float64
		for j := range s {
			s[j] = absTotal(x[j*d/topkSample])
		}
		if t0 := kthLargest(s[:], r); t0 > 0 {
			n := 0
			for _, v := range x {
				a := math.Abs(v)
				mags[n] = a
				if a >= t0 {
					n++
				}
			}
			if n >= k {
				return mags[:n]
			}
		}
	}
	for i, v := range x {
		mags[i] = absTotal(v)
	}
	return mags
}

// kthLargest returns the k-th largest element of a (1 ≤ k ≤ len(a)),
// permuting a in place. Elements must compare under a total order (no
// NaNs — see absTotal). Deterministic: median-of-three pivots and a Hoare
// partition whose scans stop on pivot-equal elements, so a
// duplicate-heavy range still splits near its middle, with a swap only
// for each out-of-place pair.
func kthLargest(a []float64, k int) float64 {
	target := len(a) - k // rank in ascending order
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := medianOf3(a[lo], a[lo+(hi-lo)/2], a[hi])
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] ≤ pivot ≤ a[i..hi]; anything between equals pivot.
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return pivot
		}
	}
	return a[target]
}

// medianOf3 returns the median of its arguments.
func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
