package compress

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// Int8 is QSGD-style stochastic quantization: each chunk of Chunk
// coordinates is scaled by its own maxAbs/127 and every coordinate is
// stochastically rounded to a signed byte, so the quantization is
// unbiased (E[decode] = x) and the error per coordinate is at most one
// scale step. The roundings draw from the caller's stream — in the FL
// engine each client owns one — which makes encodes bit-reproducible at
// any parallelism level.
type Int8 struct {
	// Chunk is the per-scale chunk length (DefaultChunk when built via
	// Spec.Codec).
	Chunk int
}

// Name implements Codec.
func (c *Int8) Name() string { return fmt.Sprintf("int8:%d", c.Chunk) }

// Grow implements Codec.
func (c *Int8) Grow(p *Payload, d int) {
	if cap(p.Q) < d {
		p.Q = make([]int8, 0, d)
	}
	chunks := (d + c.Chunk - 1) / c.Chunk
	if cap(p.Scale) < chunks {
		p.Scale = make([]float64, 0, chunks)
	}
}

// Encode implements Codec. Each chunk's coordinates x are scaled by
// inv = 1/scale and rounded by vecmath.QuantizeInt8: ⌊x·inv⌋, plus one
// when the coordinate's uniform lies below the fraction, clamped to ±127.
//
// Draw order: one Float64 per coordinate whose scaled value is finite, in
// coordinate order; a non-finite scaled value (a NaN coordinate, or every
// coordinate when inv overflows for a subnormal maximum) quantizes to 0
// and consumes none. A chunk whose magnitude is zero or infinite is
// transmitted as zeros (scale 0) and consumes no draws either. The
// per-client draw count therefore depends only on the client's own data,
// never on scheduling.
//
// The uniforms are drawn a chunk at a time into scratch, which needs
// min(len(x), Chunk) capacity; a shorter scratch (nil) costs one
// allocation.
func (c *Int8) Encode(p *Payload, x []float64, r *rng.RNG, scratch []float64) {
	int8EF[float64](c, p, x, nil, r, scratch)
}

// int8EF is Int8.Encode (e nil) and its error-feedback step (EncodeEF,
// EncodeEF32) in two vector passes per chunk. The first folds the residual
// into x and takes the chunk's max-abs and NaN count (vecmath.FoldMaxAbs);
// after the chunk's draws, the second quantizes, decodes over x and leaves
// the reset residual in e (vecmath.QuantizeDecode) — the bits of the
// fold/encode/decode/subtract/reset/narrow/copy loops, pass for pass.
// Without a residual the second pass only quantizes and x is unchanged.
func int8EF[E float64 | float32](c *Int8, p *Payload, x []float64, e []E, r *rng.RNG, scratch []float64) {
	d := len(x)
	c.Grow(p, d)
	p.Form, p.N, p.ChunkLen = KindInt8, d, c.Chunk
	p.Idx, p.Val = p.Idx[:0], p.Val[:0]
	q := p.Q[:d]
	sc := p.Scale[:0]
	u := scratch[:cap(scratch)]
	if need := min(d, c.Chunk); len(u) < need {
		u = make([]float64, need)
	}
	var es []E
	for base := 0; base < d; base += c.Chunk {
		end := min(base+c.Chunk, d)
		xs, qs, us := x[base:end], q[base:end], u[:end-base]
		if e != nil {
			es = e[base:end]
		}
		m, nans := vecmath.FoldMaxAbs(xs, es)
		scale := m / 127
		if math.IsInf(m, 0) {
			scale = 0
		}
		sc = append(sc, scale)
		// inv is +Inf when scale is 0 (a zero or infinite maximum, or one
		// that underflows) or so small that 1/scale overflows: every scaled
		// value is then 0·Inf, ±Inf or NaN, which rounds to 0 whatever the
		// uniform, so the chunk is all zeros and takes no draws. Otherwise,
		// with every non-NaN |x| ≤ m, x·inv stays within a few ulps of
		// ±127, so the scaled value is non-finite exactly where x is NaN.
		inv := 1 / scale
		switch {
		case math.IsInf(inv, 1):
		case nans == 0:
			r.Float64s(us)
		default:
			drawSkippingNaN(r, us, xs, nans)
		}
		if e == nil {
			vecmath.QuantizeInt8(qs, xs, inv, us)
		} else {
			vecmath.QuantizeDecode(qs, xs, es, inv, scale, us)
		}
	}
	p.Q, p.Scale = q, sc
}

// drawSkippingNaN fills u[i] with the next draw for every non-NaN x[i], in
// order, consuming len(x)−nans draws; u is 0 where x is NaN (QuantizeInt8
// ignores it there). It draws the block first and spreads it from the back,
// so each draw moves at most once.
func drawSkippingNaN(r *rng.RNG, u, x []float64, nans int) {
	j := len(x) - nans
	r.Float64s(u[:j])
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != x[i] {
			u[i] = 0
			continue
		}
		j--
		u[i] = u[j]
	}
}

// Decode implements Codec.
func (c *Int8) Decode(dst []float64, p *Payload) {
	chunk := p.ChunkLen
	for ci, scale := range p.Scale {
		base := ci * chunk
		end := min(base+chunk, p.N)
		for i := base; i < end; i++ {
			dst[i] = scale * float64(p.Q[i])
		}
	}
}
