package compress

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// The frozen reference encoder: Int8.Encode as it stood before the
// encoder drew its uniforms in bulk and rounded through
// vecmath.QuantizeInt8 — one Float64 per coordinate behind a
// compare-and-branch, in coordinate order. TestInt8EncodeMatchesFrozenReference
// requires the live encoder to produce the same quanta, the same scale
// bits and the same stream cursor.
//
// Do not modernize anything below this line: the bodies are the oracle,
// and divergence from them is the bug.

func refInt8Encode(chunk int, p *Payload, x []float64, r *rng.RNG) {
	d := len(x)
	p.Form, p.N, p.ChunkLen = KindInt8, d, chunk
	p.Idx, p.Val = p.Idx[:0], p.Val[:0]
	q := make([]int8, d)
	var sc []float64
	for base := 0; base < d; base += chunk {
		end := min(base+chunk, d)
		var m float64
		for _, v := range x[base:end] {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		if m == 0 || math.IsInf(m, 0) || math.IsNaN(m) {
			sc = append(sc, 0)
			for i := base; i < end; i++ {
				q[i] = 0
			}
			continue
		}
		scale := m / 127
		sc = append(sc, scale)
		inv := 1 / scale
		for i := base; i < end; i++ {
			q[i] = refQuantize(x[i]*inv, r)
		}
	}
	p.Q, p.Scale = q, sc
}

func refQuantize(v float64, r *rng.RNG) int8 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	f := math.Floor(v)
	qi := f
	if r.Float64() < v-f {
		qi++
	}
	if qi > 127 {
		qi = 127
	} else if qi < -127 {
		qi = -127
	}
	return int8(qi)
}

// int8Case is one encoder input: a name, a chunk length and the vector.
type int8Case struct {
	name  string
	chunk int
	x     []float64
}

// int8ReferenceCases builds the inputs the reference test walks: random
// chunks at every tail length 1…1025 under the default chunk and a
// non-default one, and hand-built chunks for each special path — NaN
// coordinates (no draw), a ±Inf maximum (scale 0), a subnormal maximum
// (scale 0 or inv = +Inf: no draws), all-zero chunks, exact integers,
// −0, and values that scale a few ulps past ±127.
func int8ReferenceCases() []int8Case {
	g := rng.New(101)
	normal := func(n int, std float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = g.Normal(0, std)
		}
		return x
	}
	var cases []int8Case
	for d := 1; d <= DefaultChunk+1; d++ {
		cases = append(cases, int8Case{fmt.Sprintf("tail%d", d), DefaultChunk, normal(d, 0.1)})
	}
	for _, d := range []int{1, 7, 8, 9, 99, 100, 101, 1354} {
		cases = append(cases, int8Case{fmt.Sprintf("chunk100/d%d", d), 100, normal(d, 3)})
	}
	nan, inf := math.NaN(), math.Inf(1)
	withNaN := normal(300, 1)
	for _, i := range []int{0, 1, 7, 8, 63, 64, 65, 150, 299} {
		withNaN[i] = nan
	}
	withNaN[200] = math.Copysign(nan, -1)
	allNaN := []float64{nan, nan, nan, nan, nan, nan, nan, nan, nan}
	nanThenTiny := []float64{nan, 1e-310, -1e-310, nan, 0, 5e-324}
	plusInf, minusInf := normal(70, 1), normal(70, 1)
	plusInf[33], minusInf[5] = inf, -inf
	infAndNaN := []float64{1, nan, -inf, 2}
	subnormal := []float64{5e-324, -5e-324, 0, 1e-320, math.Copysign(0, -1), nan, 3e-310, -2e-309, 4e-312}
	tinyNormal := []float64{1e-307, -3e-308, 2.5e-308, 0, 1e-306, -1e-306}
	integers := make([]float64, 0, 256)
	for v := -127; v <= 127; v++ {
		integers = append(integers, float64(v))
	}
	integers = append(integers, math.Copysign(0, -1))
	overflow := []float64{127, -127, math.Nextafter(127, 0), -126.99999999999999, 1e-3, 63.5, -63.5}
	huge := []float64{math.MaxFloat64, -math.MaxFloat64 / 3, 1e300, -1, 0, 1e308}
	mixed := append(append(append(normal(100, 1), withNaN[:64]...), make([]float64, 100)...), plusInf[:40]...)
	for _, c := range []struct {
		name string
		x    []float64
	}{
		{"nan", withNaN}, {"allNaN", allNaN}, {"nanThenTiny", nanThenTiny}, {"+inf", plusInf}, {"-inf", minusInf},
		{"infAndNaN", infAndNaN}, {"subnormalMax", subnormal}, {"tinyNormalMax", tinyNormal}, {"zeros", make([]float64, 77)},
		{"integers", integers}, {"overflow", overflow}, {"huge", huge}, {"mixed", mixed},
	} {
		for _, chunk := range []int{DefaultChunk, 64, 9, 1} {
			cases = append(cases, int8Case{fmt.Sprintf("%s/chunk%d", c.name, chunk), chunk, c.x})
		}
	}
	return cases
}

// TestInt8EncodeMatchesFrozenReference pins the encoder to the frozen
// reference above on every case of int8ReferenceCases: Q, the bits of
// every Scale, N and ChunkLen, and the next draw of the stream — so the
// encoder consumed exactly the reference's draws. Each case runs with a
// reused scratch and with nil scratch. CI runs it on both the assembly
// and the -tags noasm build.
func TestInt8EncodeMatchesFrozenReference(t *testing.T) {
	var got, want Payload
	scratch := make([]float64, 2*DefaultChunk)
	for ci, c := range int8ReferenceCases() {
		for _, sc := range [][]float64{scratch, nil} {
			seed := uint64(1000 + ci)
			gr, wr := rng.New(seed), rng.New(seed)
			codec := &Int8{Chunk: c.chunk}
			codec.Encode(&got, c.x, gr, sc)
			refInt8Encode(c.chunk, &want, c.x, wr)
			if got.Form != want.Form || got.N != want.N || got.ChunkLen != want.ChunkLen {
				t.Fatalf("%s: header (%v, %d, %d), reference (%v, %d, %d)", c.name, got.Form, got.N, got.ChunkLen, want.Form, want.N, want.ChunkLen)
			}
			if len(got.Q) != len(want.Q) || len(got.Scale) != len(want.Scale) {
				t.Fatalf("%s: %d quanta and %d scales, reference %d and %d", c.name, len(got.Q), len(got.Scale), len(want.Q), len(want.Scale))
			}
			for i := range want.Q {
				if got.Q[i] != want.Q[i] {
					t.Fatalf("%s: Q[%d] = %d, reference %d (x = %v)", c.name, i, got.Q[i], want.Q[i], c.x[i])
				}
			}
			for i := range want.Scale {
				if math.Float64bits(got.Scale[i]) != math.Float64bits(want.Scale[i]) {
					t.Fatalf("%s: Scale[%d] = %v, reference %v", c.name, i, got.Scale[i], want.Scale[i])
				}
			}
			if g, w := gr.Uint64(), wr.Uint64(); g != w {
				t.Fatalf("%s: stream cursor differs after the encode (next draw %x, reference %x)", c.name, g, w)
			}
		}
	}
}

// BenchmarkInt8Encode reports the int8 encoder's cost per coordinate at
// the adult MLP's update length (d = 1 354, the async workload's
// per-update encode) with the default chunk and a reused scratch.
func BenchmarkInt8Encode(b *testing.B) {
	const d = 1354
	g := rng.New(3)
	x := make([]float64, d)
	for i := range x {
		x[i] = g.Normal(0, 0.01)
	}
	c := &Int8{Chunk: DefaultChunk}
	var p Payload
	c.Grow(&p, d)
	scratch := make([]float64, d)
	r := rng.New(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(&p, x, r, scratch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/d, "ns/coord")
}

// The frozen reference top-k encoder: TopK.Encode, kthLargest and
// medianOf3 as they stood before the threshold selection ran over a
// sampled candidate set — one Dutch-flag quickselect over all d
// magnitudes, a pass counting the magnitudes above the threshold, and
// the tie-filling emission. TestTopKEncodeMatchesFrozenReference and
// FuzzCodecRoundtrip require the live encoder to produce the same
// header, the same indices and the same value bits.
//
// Do not modernize anything below this line up to sameTopK: the bodies
// are the oracle, and divergence from them is the bug.

func refTopKEncode(frac float64, p *Payload, x []float64) {
	d := len(x)
	k := min(max(int(frac*float64(d)+0.5), 1), d)
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
	mags := make([]float64, d)
	for i, v := range x {
		mags[i] = refAbsTotal(v)
	}
	tau := refKthLargest(mags, k)
	ties := k
	for _, v := range x {
		if refAbsTotal(v) > tau {
			ties--
		}
	}
	for i, v := range x {
		if math.IsNaN(v) {
			continue
		}
		m := refAbsTotal(v)
		if m > tau {
			idx = append(idx, int32(i))
			val = append(val, v)
		} else if m == tau && ties > 0 {
			ties--
			idx = append(idx, int32(i))
			val = append(val, v)
		}
	}
	p.Idx, p.Val = idx, val
}

func refAbsTotal(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return math.Abs(v)
}

func refKthLargest(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	target := len(a) - k
	for hi-lo > 1 {
		pivot := refMedianOf3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		lt, gt := lo, hi
		for i := lo; i < gt; {
			switch {
			case a[i] < pivot:
				a[i], a[lt] = a[lt], a[i]
				lt++
				i++
			case a[i] > pivot:
				gt--
				a[i], a[gt] = a[gt], a[i]
			default:
				i++
			}
		}
		switch {
		case target < lt:
			hi = lt
		case target < gt:
			return pivot
		default:
			lo = gt
		}
	}
	return a[lo]
}

func refMedianOf3(a, b, c float64) float64 {
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

// The frozen reference error-feedback steps: EncodeEF and EncodeEF32 over
// a top-k codec as they stood before the fold, the selection, the
// residual and the decode were fused into two passes — a fold loop, the
// reference encoder above, a decode over zeros, the subtraction, the
// non-finite reset and the copy. TestEncodeEFMatchesFrozenReference and
// FuzzCodecRoundtrip require the live steps to produce the same payload,
// the same residual bits and the same decoded-x bits.
//
// Do not modernize these two bodies either.

func refEncodeEF(frac float64, p *Payload, x, e []float64) {
	for i := range x {
		x[i] += e[i]
	}
	refTopKEncode(frac, p, x)
	dec := make([]float64, len(x))
	for j, i := range p.Idx {
		dec[i] = p.Val[j]
	}
	for i := range e {
		e[i] = x[i] - dec[i]
		if math.IsNaN(e[i]) || math.IsInf(e[i], 0) {
			e[i] = 0
		}
	}
	copy(x, dec)
}

func refEncodeEF32(frac float64, p *Payload, x []float64, e32 []float32) {
	for i := range x {
		x[i] += float64(e32[i])
	}
	refTopKEncode(frac, p, x)
	dec := make([]float64, len(x))
	for j, i := range p.Idx {
		dec[i] = p.Val[j]
	}
	for i := range e32 {
		v := x[i] - dec[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		e32[i] = float32(v)
	}
	copy(x, dec)
}

// The frozen reference error-feedback steps of the other two codecs, as
// the generic step ran them before int8 took two vector passes per chunk
// and None its lossless shortcut: the fold, the reference int8 encoder
// above (or None's copy), a decode, the subtraction, the non-finite reset
// (before the float32 narrowing) and the copy, one coordinate at a time.
// Do not modernize these bodies either.

func refInt8EF(chunk int, p *Payload, x, e []float64, r *rng.RNG) {
	for i := range x {
		x[i] += e[i]
	}
	refInt8Encode(chunk, p, x, r)
	dec := refInt8Decode(p)
	for i := range e {
		e[i] = x[i] - dec[i]
		if math.IsNaN(e[i]) || math.IsInf(e[i], 0) {
			e[i] = 0
		}
	}
	copy(x, dec)
}

func refInt8EF32(chunk int, p *Payload, x []float64, e32 []float32, r *rng.RNG) {
	for i := range x {
		x[i] += float64(e32[i])
	}
	refInt8Encode(chunk, p, x, r)
	dec := refInt8Decode(p)
	for i := range e32 {
		v := x[i] - dec[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		e32[i] = float32(v)
	}
	copy(x, dec)
}

func refInt8Decode(p *Payload) []float64 {
	dec := make([]float64, p.N)
	for i := range dec {
		dec[i] = p.Scale[i/p.ChunkLen] * float64(p.Q[i])
	}
	return dec
}

func refNoneEF[E float64 | float32](p *Payload, x []float64, e []E) {
	for i := range x {
		x[i] += float64(e[i])
	}
	p.Form, p.N = KindNone, len(x)
	p.Val = append(p.Val[:0], x...)
	dec := append([]float64(nil), p.Val...)
	for i := range e {
		v := x[i] - dec[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		e[i] = E(v)
	}
	copy(x, dec)
}

// sameTopK compares a live top-k payload with the reference's: the
// header, the int8 fields an earlier encode may have left behind, every
// index, and the bits of every value.
func sameTopK(got, want *Payload) error {
	if got.Form != want.Form || got.N != want.N || got.ChunkLen != want.ChunkLen {
		return fmt.Errorf("header (%v, %d, %d), reference (%v, %d, %d)", got.Form, got.N, got.ChunkLen, want.Form, want.N, want.ChunkLen)
	}
	if len(got.Q) != 0 || len(got.Scale) != 0 {
		return fmt.Errorf("%d quanta and %d scales left in a top-k payload", len(got.Q), len(got.Scale))
	}
	if len(got.Idx) != len(want.Idx) || len(got.Val) != len(want.Val) {
		return fmt.Errorf("%d indices and %d values, reference %d and %d", len(got.Idx), len(got.Val), len(want.Idx), len(want.Val))
	}
	for j := range want.Idx {
		if got.Idx[j] != want.Idx[j] {
			return fmt.Errorf("Idx[%d] = %d, reference %d", j, got.Idx[j], want.Idx[j])
		}
		if math.Float64bits(got.Val[j]) != math.Float64bits(want.Val[j]) {
			return fmt.Errorf("Val[%d] = %#x, reference %#x", j, math.Float64bits(got.Val[j]), math.Float64bits(want.Val[j]))
		}
	}
	return nil
}

// topkCase is one top-k encoder input: a name, the kept fraction and the
// vector.
type topkCase struct {
	name string
	frac float64
	x    []float64
}

// topkReferenceCases builds the inputs the top-k reference test walks.
// Every vector family comes at d ∈ {1, 2, 7, 100, 511, 512, 1 354, 4 096}
// with k ∈ {1, d−1, d} and the codec fractions .01, .05 and .3: Normal
// deltas; quiet and signalling NaNs with payload bits among ±Inf, ±0 and
// subnormals; all-equal vectors (ties at the threshold span the whole
// vector); mostly-zero vectors (threshold 0, where NaN must still be
// dropped); NaN-heavy vectors that emit fewer than k pairs; sorted
// ascending and descending vectors; and vectors whose large magnitudes
// sit exactly on the sampled positions, so the sampled bound admits
// fewer than k candidates and the full selection runs. Then vectors
// where k−1, k and k+1 magnitudes reach the sampled bound exactly.
func topkReferenceCases() []topkCase {
	g := rng.New(202)
	specials := []float64{
		math.Float64frombits(0x7ff8_0000_0000_0123), // quiet NaN, payload
		math.Float64frombits(0xfff8_0000_dead_0000), // negative quiet NaN
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xfff4_0000_0000_0abc), // negative signalling NaN
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, math.Float64frombits(0x000f_ffff_ffff_ffff), -2.2250738585072014e-308,
	}
	families := []struct {
		name string
		gen  func(d int) []float64
	}{
		{"normal", func(d int) []float64 {
			x := make([]float64, d)
			for i := range x {
				x[i] = g.Normal(0, 0.01)
			}
			return x
		}},
		{"specials", func(d int) []float64 {
			x := make([]float64, d)
			for i := range x {
				if g.Float64() < 0.2 {
					x[i] = specials[g.IntN(len(specials))]
				} else {
					x[i] = g.Normal(0, 1)
				}
			}
			return x
		}},
		{"allEqual", func(d int) []float64 {
			x := make([]float64, d)
			for i := range x {
				x[i] = 0.25
				if i%3 == 1 {
					x[i] = -0.25
				}
			}
			return x
		}},
		{"mostlyZero", func(d int) []float64 {
			x := make([]float64, d)
			for i := range x {
				switch u := g.Float64(); {
				case u < 0.01:
					x[i] = g.Normal(0, 1)
				case u < 0.03:
					x[i] = math.NaN()
				case u < 0.5:
					x[i] = math.Copysign(0, -1)
				}
			}
			return x
		}},
		{"nanHeavy", func(d int) []float64 {
			x := make([]float64, d)
			for i := range x {
				if g.Float64() < 0.9 {
					x[i] = math.Float64frombits(0x7ff8_0000_0000_0000 | g.Uint64()&0xffff)
				} else {
					x[i] = g.Normal(0, 1)
				}
			}
			return x
		}},
		{"ascending", func(d int) []float64 {
			x := make([]float64, d)
			for i := range x {
				x[i] = float64(i) / 8
			}
			return x
		}},
		{"descending", func(d int) []float64 {
			x := make([]float64, d)
			for i := range x {
				x[i] = -float64(d-i) / 8
			}
			return x
		}},
		{"sampleAdversary", func(d int) []float64 {
			x := make([]float64, d)
			for i := range x {
				x[i] = g.Normal(0, 1e-3)
			}
			for j := 0; j < topkSample; j++ {
				x[j*d/topkSample] = 1 + float64(j)
			}
			return x
		}},
	}
	var cases []topkCase
	for _, d := range []int{1, 2, 7, 100, 511, 512, 1354, 4096} {
		for _, f := range families {
			x := f.gen(d)
			for _, k := range []int{1, d - 1, d} {
				if k < 1 {
					continue
				}
				cases = append(cases, topkCase{fmt.Sprintf("%s/d%d/k%d", f.name, d, k), float64(k) / float64(d), x})
			}
			for _, frac := range []float64{0.01, 0.05, 0.3} {
				cases = append(cases, topkCase{fmt.Sprintf("%s/d%d/frac%g", f.name, d, frac), frac, x})
			}
		}
	}
	// Exactly k−1, k and k+1 magnitudes reach the sampled bound: r sampled
	// positions and enough unsampled ones hold ±2 over a tiny background,
	// so the bound is 2 and the compaction's count sits on either side of
	// k.
	const frac = 0.05
	for _, d := range []int{512, 1354, 4096} {
		k := (&TopK{Frac: frac}).K(d)
		r := 2*k*topkSample/d + 4
		for _, n := range []int{k - 1, k, k + 1} {
			x := make([]float64, d)
			for i := range x {
				x[i] = g.Normal(0, 1e-3)
			}
			sampled := make(map[int]bool, topkSample)
			for j := 0; j < topkSample; j++ {
				sampled[j*d/topkSample] = true
			}
			for j := 0; j < r; j++ {
				x[j*d/topkSample] = math.Copysign(2, float64(j%2)-0.5)
			}
			for i, placed := d-1, r; placed < n; i-- {
				if !sampled[i] {
					x[i] = 2
					placed++
				}
			}
			cases = append(cases, topkCase{fmt.Sprintf("bound/d%d/%d-at-bound", d, n), frac, x})
		}
	}
	return cases
}

// TestTopKEncodeMatchesFrozenReference pins the top-k encoder to the
// frozen reference above on every case of topkReferenceCases. The live
// encoder runs into one reused payload, which an int8 encode dirties
// before every other case, with a reused scratch left full of the last
// selection, and again with a fresh payload and scratch.
func TestTopKEncodeMatchesFrozenReference(t *testing.T) {
	var reused, want Payload
	scratch := make([]float64, 4096)
	dirty := &Int8{Chunk: 7}
	for ci, c := range topkReferenceCases() {
		codec := &TopK{Frac: c.frac}
		if k := codec.K(len(c.x)); k != min(max(int(c.frac*float64(len(c.x))+0.5), 1), len(c.x)) {
			t.Fatalf("%s: K = %d disagrees with the reference's k", c.name, k)
		}
		refTopKEncode(c.frac, &want, c.x)
		if ci%2 == 0 {
			dirty.Encode(&reused, c.x, rng.New(uint64(ci)), scratch)
		}
		var fresh Payload
		for _, run := range []struct {
			name    string
			p       *Payload
			scratch []float64
		}{
			{"reused", &reused, scratch},
			{"fresh", &fresh, make([]float64, len(c.x))},
		} {
			codec.Encode(run.p, c.x, nil, run.scratch)
			if err := sameTopK(run.p, &want); err != nil {
				t.Fatalf("%s (%s payload): %v", c.name, run.name, err)
			}
		}
	}
}

// sameEF runs one live and one reference error-feedback step of codec c
// (top-k, int8 or None) over copies of x and of the residual e (float64 or
// float32), into p and a fresh payload, with twin streams seeded by seed,
// and reports the first difference in the payload, the residual bits, the
// decoded-x bits or the stream cursor. The live step's residual is left
// in e. None transmits x+e itself, whose NaN payload is the fold's operand
// order when a NaN meets a NaN, so there a NaN only has to be NaN.
func sameEF[E float64 | float32](c Codec, p *Payload, x []float64, e []E, seed uint64, scratch []float64) error {
	gx, wx, we := slices.Clone(x), slices.Clone(x), slices.Clone(e)
	gr, wr := rng.New(seed), rng.New(seed)
	var want Payload
	switch e := any(e).(type) {
	case []float64:
		EncodeEF(c, p, gx, e, gr, scratch)
	case []float32:
		EncodeEF32(c, p, gx, e, gr, scratch)
	}
	switch c := c.(type) {
	case *TopK:
		switch we := any(we).(type) {
		case []float64:
			refEncodeEF(c.Frac, &want, wx, we)
		case []float32:
			refEncodeEF32(c.Frac, &want, wx, we)
		}
	case *Int8:
		switch we := any(we).(type) {
		case []float64:
			refInt8EF(c.Chunk, &want, wx, we, wr)
		case []float32:
			refInt8EF32(c.Chunk, &want, wx, we, wr)
		}
	default:
		refNoneEF(&want, wx, we)
	}
	same := func(g, w float64) bool { return math.Float64bits(g) == math.Float64bits(w) }
	var err error
	switch want.Form {
	case KindTopK:
		err = sameTopK(p, &want)
	case KindInt8:
		err = sameInt8(p, &want)
	default:
		same = func(g, w float64) bool {
			return math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w)
		}
		if p.Form != KindNone || p.N != want.N || len(p.Val) != len(want.Val) {
			err = fmt.Errorf("header (%v, %d, %d values), reference (%v, %d, %d values)", p.Form, p.N, len(p.Val), want.Form, want.N, len(want.Val))
		}
		for j := 0; err == nil && j < len(want.Val); j++ {
			if !same(p.Val[j], want.Val[j]) {
				err = fmt.Errorf("Val[%d] = %#x, reference %#x", j, math.Float64bits(p.Val[j]), math.Float64bits(want.Val[j]))
			}
		}
	}
	if err != nil {
		return err
	}
	for i := range e {
		if g, w := math.Float64bits(float64(e[i])), math.Float64bits(float64(we[i])); g != w {
			return fmt.Errorf("residual[%d] = %#x, reference %#x", i, g, w)
		}
	}
	for i := range gx {
		if !same(gx[i], wx[i]) {
			return fmt.Errorf("decoded x[%d] = %#x, reference %#x", i, math.Float64bits(gx[i]), math.Float64bits(wx[i]))
		}
	}
	if g, w := gr.Uint64(), wr.Uint64(); g != w {
		return fmt.Errorf("stream cursor differs after the step (next draw %x, reference %x)", g, w)
	}
	return nil
}

// sameInt8 compares a live int8 payload with the reference's: the header,
// the top-k fields an earlier encode may have left behind, every quantum
// and the bits of every scale.
func sameInt8(got, want *Payload) error {
	if got.Form != want.Form || got.N != want.N || got.ChunkLen != want.ChunkLen {
		return fmt.Errorf("header (%v, %d, %d), reference (%v, %d, %d)", got.Form, got.N, got.ChunkLen, want.Form, want.N, want.ChunkLen)
	}
	if len(got.Idx) != 0 || len(got.Val) != 0 {
		return fmt.Errorf("%d indices and %d values left in an int8 payload", len(got.Idx), len(got.Val))
	}
	if len(got.Q) != len(want.Q) || len(got.Scale) != len(want.Scale) {
		return fmt.Errorf("%d quanta and %d scales, reference %d and %d", len(got.Q), len(got.Scale), len(want.Q), len(want.Scale))
	}
	for i := range want.Q {
		if got.Q[i] != want.Q[i] {
			return fmt.Errorf("Q[%d] = %d, reference %d", i, got.Q[i], want.Q[i])
		}
	}
	for i := range want.Scale {
		if math.Float64bits(got.Scale[i]) != math.Float64bits(want.Scale[i]) {
			return fmt.Errorf("Scale[%d] = %v, reference %v", i, got.Scale[i], want.Scale[i])
		}
	}
	return nil
}

// efResiduals builds the residuals TestEncodeEFMatchesFrozenReference
// starts each case from, as float64: zero; Normal; the residual that
// steps reference steps over x leave; and a Normal one seeded with NaN of
// either sign, ±Inf, −0 and subnormals.
func efResiduals(x []float64, steps int, step func(x, e []float64), g *rng.RNG) []struct {
	kind string
	e    []float64
} {
	d := len(x)
	normal := make([]float64, d)
	for i := range normal {
		normal[i] = g.Normal(0, 0.01)
	}
	accumulated := make([]float64, d)
	for s := 0; s < steps; s++ {
		step(slices.Clone(x), accumulated)
	}
	seeded := slices.Clone(normal)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.Copysign(math.NaN(), -1), 5e-324, -1e-310}
	for i := 0; i < d; i += 3 {
		seeded[i] = specials[i/3%len(specials)]
	}
	return []struct {
		kind string
		e    []float64
	}{{"zero", make([]float64, d)}, {"normal", normal}, {"accumulated", accumulated}, {"seeded", seeded}}
}

// TestEncodeEFMatchesFrozenReference pins the error-feedback steps to the
// frozen references above, from each residual of efResiduals, with float64
// residuals (EncodeEF) and float32 ones (EncodeEF32, the residual
// narrowed): top-k on every case of topkReferenceCases (k ∈ {1, d−1, d} and
// three fractions over every vector family); int8 and None on every case
// of int8ReferenceCases — every chunk tail, NaN coordinates that skip
// their draw, ±Inf, −0 and subnormal coordinates, and chunks whose maximum
// is 0, infinite, or so small that 1/scale overflows — where int8 must
// also leave the stream at the reference's cursor. The live steps run
// into one reused payload with one reused scratch, which the int8 cases
// share with the top-k ones.
func TestEncodeEFMatchesFrozenReference(t *testing.T) {
	var p Payload
	scratch := make([]float64, 4096)
	g := rng.New(303)
	narrow := func(e []float64) []float32 {
		e32 := make([]float32, len(e))
		for i, v := range e {
			e32[i] = float32(v)
		}
		return e32
	}
	check := func(c Codec, name string, x []float64, residuals []struct {
		kind string
		e    []float64
	}, seed uint64) {
		t.Helper()
		for _, r := range residuals {
			if err := sameEF(c, &p, x, slices.Clone(r.e), seed, scratch); err != nil {
				t.Fatalf("%s %s, %s residual, f64: %v", c.Name(), name, r.kind, err)
			}
			if err := sameEF(c, &p, x, narrow(r.e), seed, scratch); err != nil {
				t.Fatalf("%s %s, %s residual, f32: %v", c.Name(), name, r.kind, err)
			}
		}
	}
	for _, c := range topkReferenceCases() {
		var want Payload
		step := func(x, e []float64) { refEncodeEF(c.frac, &want, x, e) }
		check(&TopK{Frac: c.frac}, c.name, c.x, efResiduals(c.x, 50, step, g), 0)
	}
	for ci, c := range int8ReferenceCases() {
		var want Payload
		sr := rng.New(uint64(ci))
		step := func(x, e []float64) { refInt8EF(c.chunk, &want, x, e, sr) }
		residuals := efResiduals(c.x, 20, step, g)
		check(&Int8{Chunk: c.chunk}, c.name, c.x, residuals, uint64(2000+ci))
		check(None{}, c.name, c.x, residuals, 0)
	}
}

// BenchmarkTopKEncode reports the top-k encoder's cost per coordinate at
// the adult MLP's update length (d = 1 354, the failover workload's
// per-update encode) with Frac .05 and a reused scratch.
func BenchmarkTopKEncode(b *testing.B) {
	const d = 1354
	g := rng.New(3)
	x := make([]float64, d)
	for i := range x {
		x[i] = g.Normal(0, 0.01)
	}
	c := &TopK{Frac: 0.05}
	var p Payload
	c.Grow(&p, d)
	scratch := make([]float64, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(&p, x, nil, scratch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/d, "ns/coord")
}
