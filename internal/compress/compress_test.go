package compress

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

func TestParseSpec(t *testing.T) {
	good := []struct {
		in   string
		want Spec
	}{
		{"", Spec{}},
		{"none", Spec{}},
		{"topk", Spec{Kind: KindTopK}},
		{"topk:0.05", Spec{Kind: KindTopK, TopKFrac: 0.05}},
		{"topk:1", Spec{Kind: KindTopK, TopKFrac: 1}},
		{"int8", Spec{Kind: KindInt8}},
		{"int8:256", Spec{Kind: KindInt8, Chunk: 256}},
	}
	for _, tt := range good {
		got, err := ParseSpec(tt.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tt.in, err)
		}
		if got != tt.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
	bad := []string{"gzip", "topk:", "topk:nan", "topk:-0.1", "topk:1.5", "int8:x", "int8:-4", "none:1"}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Fatalf("ParseSpec(%q): expected an error", in)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: "gzip"},
		{Kind: KindNone, TopKFrac: 0.5},
		{Kind: KindInt8, TopKFrac: 0.5},
		{Kind: KindTopK, TopKFrac: -0.1},
		{Kind: KindTopK, TopKFrac: 1.5},
		{Kind: KindTopK, TopKFrac: math.NaN()},
		{Kind: KindTopK, Chunk: 16},
		{Kind: KindInt8, Chunk: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("Validate(%+v): expected an error", s)
		}
	}
	for _, s := range []Spec{{}, {Kind: KindTopK}, {Kind: KindTopK, TopKFrac: 0.1}, {Kind: KindInt8, Chunk: 64}} {
		if err := s.Validate(); err != nil {
			t.Fatalf("Validate(%+v): %v", s, err)
		}
	}
}

func TestNoneRoundtrip(t *testing.T) {
	r := rng.New(1)
	x := randVec(r, 100)
	var p Payload
	c := None{}
	c.Encode(&p, x, nil, nil)
	if p.Bytes() != 800 {
		t.Fatalf("None payload Bytes = %d, want 800", p.Bytes())
	}
	dst := make([]float64, len(x))
	c.Decode(dst, &p)
	for i := range x {
		if dst[i] != x[i] {
			t.Fatalf("None roundtrip changed x[%d]: %v != %v", i, dst[i], x[i])
		}
	}
}

func TestTopKSelection(t *testing.T) {
	x := []float64{0.1, -3, 0.5, 2, -0.2, 0.5, 1}
	c := &TopK{Frac: 3.0 / 7}
	var p Payload
	scratch := make([]float64, len(x))
	c.Encode(&p, x, nil, scratch)
	wantIdx := []int32{1, 3, 6} // |−3|, |2|, |1|
	if len(p.Idx) != len(wantIdx) {
		t.Fatalf("kept %d coordinates, want %d", len(p.Idx), len(wantIdx))
	}
	for j := range wantIdx {
		if p.Idx[j] != wantIdx[j] {
			t.Fatalf("Idx = %v, want %v", p.Idx, wantIdx)
		}
		if p.Val[j] != x[wantIdx[j]] {
			t.Fatalf("Val[%d] = %v, want %v", j, p.Val[j], x[wantIdx[j]])
		}
	}
}

// TestTopKTieBreak pins the determinism contract: magnitude ties at the
// threshold are broken by the smallest index.
func TestTopKTieBreak(t *testing.T) {
	x := []float64{1, -1, 1, 1, -1}
	c := &TopK{Frac: 0.4} // k = 2 of 5
	var p Payload
	c.Encode(&p, x, nil, make([]float64, len(x)))
	if len(p.Idx) != 2 || p.Idx[0] != 0 || p.Idx[1] != 1 {
		t.Fatalf("tie-broken Idx = %v, want [0 1]", p.Idx)
	}
}

func TestTopKProperties(t *testing.T) {
	r := rng.New(5)
	for _, d := range []int{1, 7, 100, 4096} {
		for _, frac := range []float64{0.01, 0.1, 0.5, 1} {
			x := randVec(r, d)
			c := &TopK{Frac: frac}
			var p Payload
			c.Encode(&p, x, nil, make([]float64, d))
			k := c.K(d)
			if len(p.Idx) != k || len(p.Val) != k {
				t.Fatalf("d=%d frac=%v: kept %d/%d coordinates, want %d", d, frac, len(p.Idx), len(p.Val), k)
			}
			// Indices ascending and unique; every kept magnitude ≥ every
			// dropped magnitude.
			kept := make(map[int32]bool, k)
			minKept := math.Inf(1)
			for j, i := range p.Idx {
				if j > 0 && p.Idx[j] <= p.Idx[j-1] {
					t.Fatalf("d=%d frac=%v: indices not ascending: %v", d, frac, p.Idx)
				}
				kept[i] = true
				if m := math.Abs(p.Val[j]); m < minKept {
					minKept = m
				}
				if p.Val[j] != x[i] {
					t.Fatalf("d=%d frac=%v: Val[%d]=%v, want x[%d]=%v", d, frac, j, p.Val[j], i, x[i])
				}
			}
			for i, v := range x {
				if !kept[int32(i)] && math.Abs(v) > minKept {
					t.Fatalf("d=%d frac=%v: dropped |x[%d]|=%v > smallest kept %v", d, frac, i, math.Abs(v), minKept)
				}
			}
			// Decode is the kept coordinates over zeros.
			dst := make([]float64, d)
			c.Decode(dst, &p)
			for i := range x {
				if kept[int32(i)] && dst[i] != x[i] || !kept[int32(i)] && dst[i] != 0 {
					t.Fatalf("d=%d frac=%v: decode[%d]=%v", d, frac, i, dst[i])
				}
			}
		}
	}
}

func TestInt8Roundtrip(t *testing.T) {
	r := rng.New(9)
	for _, d := range []int{1, 63, 64, 65, 1000} {
		x := randVec(r, d)
		c := &Int8{Chunk: 64}
		var p Payload
		c.Encode(&p, x, rng.New(3), nil)
		if wantChunks := (d + 63) / 64; len(p.Scale) != wantChunks {
			t.Fatalf("d=%d: %d chunk scales, want %d", d, len(p.Scale), wantChunks)
		}
		dst := make([]float64, d)
		c.Decode(dst, &p)
		// Per-coordinate error is at most one scale step.
		for i := range x {
			scale := p.Scale[i/64]
			if math.Abs(dst[i]-x[i]) > scale*(1+1e-12) {
				t.Fatalf("d=%d: |decode[%d]-x| = %v exceeds scale %v", d, i, math.Abs(dst[i]-x[i]), scale)
			}
		}
	}
}

// TestInt8Deterministic pins that the encode is a pure function of the
// input and the stream state.
func TestInt8Deterministic(t *testing.T) {
	x := randVec(rng.New(2), 500)
	c := &Int8{Chunk: 128}
	var pa, pb Payload
	c.Encode(&pa, x, rng.New(77), nil)
	c.Encode(&pb, x, rng.New(77), nil)
	for i := range pa.Q {
		if pa.Q[i] != pb.Q[i] {
			t.Fatalf("same stream, different quantization at %d", i)
		}
	}
}

func TestInt8ZeroChunk(t *testing.T) {
	x := make([]float64, 100) // all zero
	c := &Int8{Chunk: 32}
	var p Payload
	c.Encode(&p, x, rng.New(1), nil)
	dst := make([]float64, 100)
	for i := range dst {
		dst[i] = 42
	}
	c.Decode(dst, &p)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("zero vector decoded to %v at %d", v, i)
		}
	}
}

func TestPayloadBytes(t *testing.T) {
	x := randVec(rng.New(4), 1000)
	var p Payload
	tk := &TopK{Frac: 0.01}
	tk.Encode(&p, x, nil, make([]float64, 1000))
	if got, want := p.Bytes(), 10*(4+8); got != want {
		t.Fatalf("TopK Bytes = %d, want %d", got, want)
	}
	i8 := &Int8{Chunk: 100}
	i8.Encode(&p, x, rng.New(1), nil)
	if got, want := p.Bytes(), 1000+10*8; got != want {
		t.Fatalf("Int8 Bytes = %d, want %d", got, want)
	}
}

// TestErrorFeedbackConverges is the error-feedback property test: over a
// stream of updates, the cumulative decoded mass must track the
// cumulative true mass — exactly up to the final residual (algebraic
// telescoping), and within a small relative error overall because the
// residual stays bounded (≈ one selection gap d/k of mass for TopK, one
// scale step for Int8) instead of growing with T.
func TestErrorFeedbackConverges(t *testing.T) {
	const d, T = 512, 400
	codecs := []Codec{&TopK{Frac: 0.05}, &Int8{Chunk: 128}, None{}}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			r := rng.New(21)
			stream := rng.New(33)
			e := make([]float64, d)
			scratch := make([]float64, d)
			x := make([]float64, d)
			cumTrue := make([]float64, d)
			cumDec := make([]float64, d)
			var p Payload
			for step := 0; step < T; step++ {
				// A drifting gradient-like stream: a fixed bias plus noise,
				// so dropped coordinates carry real mass that only error
				// feedback can recover.
				for i := range x {
					x[i] = math.Sin(float64(i)) * 0.1
					x[i] += r.Normal(0, 0.05)
				}
				vecmath.Add(cumTrue, cumTrue, x)
				EncodeEF(c, &p, x, e, stream, scratch)
				vecmath.Add(cumDec, cumDec, x) // x now holds the decoded update
			}
			// Telescoping identity: cumTrue − cumDec == e (up to fp error).
			for i := range e {
				if diff := math.Abs(cumTrue[i] - cumDec[i] - e[i]); diff > 1e-9 {
					t.Fatalf("telescoping violated at %d: |cumTrue-cumDec-e| = %v", i, diff)
				}
			}
			relErr := vecmath.Norm2(e) / vecmath.Norm2(cumTrue)
			if relErr > 0.1 {
				t.Fatalf("cumulative decoded mass off by %.1f%% after %d steps (residual did not stay bounded)", 100*relErr, T)
			}
		})
	}
}

// TestErrorFeedbackRecoversDroppedMass contrasts EF on vs off for a
// constant update under aggressive sparsification: without feedback the
// never-selected coordinates lose all their mass; with feedback every
// coordinate's cumulative decode approaches its cumulative truth.
func TestErrorFeedbackRecoversDroppedMass(t *testing.T) {
	const d, T = 64, 640
	c := &TopK{Frac: 1.0 / 16} // four coordinates per step
	grad := make([]float64, d)
	for i := range grad {
		grad[i] = 1 + float64(i)/d // all positive, mildly skewed
	}
	run := func(withEF bool) []float64 {
		var e []float64
		if withEF {
			e = make([]float64, d)
		}
		scratch := make([]float64, d)
		x := make([]float64, d)
		cum := make([]float64, d)
		var p Payload
		for step := 0; step < T; step++ {
			copy(x, grad)
			EncodeEF(c, &p, x, e, nil, scratch)
			vecmath.Add(cum, cum, x)
		}
		return cum
	}
	withEF, withoutEF := run(true), run(false)
	var zerosNoEF int
	var cumTrue, errEF float64
	for i := range grad {
		if withoutEF[i] == 0 {
			zerosNoEF++
		}
		if withEF[i] == 0 {
			t.Fatalf("EF run starved coordinate %d entirely", i)
		}
		want := float64(T) * grad[i]
		cumTrue += want * want
		errEF += (withEF[i] - want) * (withEF[i] - want)
	}
	if rel := math.Sqrt(errEF / cumTrue); rel > 0.1 {
		t.Fatalf("EF cumulative mass off by %.1f%%", 100*rel)
	}
	if zerosNoEF == 0 {
		t.Fatal("expected the feedback-free run to starve some coordinates entirely")
	}
}

// TestErrorFeedbackNonFiniteRecovery pins the residual-sanitizing
// contract: one non-finite upload (a transient attack or divergence)
// must not poison the client's feedback — the residual stays finite and
// later finite uploads flow through at full mass again — while a finite
// residual, down to the largest subnormal, is kept bit for bit: every
// step's residual must be exactly (x+e) − decode where that is finite
// and 0 where it is not. The float32 residual of EncodeEF32 must come
// out finite too.
func TestErrorFeedbackNonFiniteRecovery(t *testing.T) {
	const d = 256
	maxSubnormal := math.Float64frombits(0x000f_ffff_ffff_ffff)
	signalling := math.Float64frombits(0xfff0_0000_0000_0b0b) // negative sNaN with payload bits
	for _, c := range []Codec{&Int8{Chunk: 64}, &TopK{Frac: 0.5}} {
		t.Run(c.Name(), func(t *testing.T) {
			stream := rng.New(7)
			e := make([]float64, d)
			e32 := make([]float32, d)
			scratch := make([]float64, d)
			x := make([]float64, d)
			folded := make([]float64, d)
			var p Payload
			fill := func(poison bool) {
				for i := range x {
					x[i] = 1
				}
				if poison {
					x[3] = math.Inf(1)
					x[7] = math.Inf(-1)
					x[100] = math.NaN()
					x[101] = signalling
				}
			}
			encode := func() {
				for i := range x {
					folded[i] = x[i] + e[i]
				}
				EncodeEF(c, &p, x, e, stream, scratch)
				for i, v := range e {
					want := folded[i] - x[i] // x now holds the decoded update
					if math.IsNaN(want) || math.IsInf(want, 0) {
						want = 0
					}
					if math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("residual[%d] = %v, want %v", i, v, want)
					}
				}
			}
			step := func(poison bool) {
				fill(poison)
				encode()
			}
			// The largest subnormal is dropped by both codecs (a top-k tail
			// coordinate; an int8 quantum of 0) and must survive in e as is.
			fill(false)
			x[200] = maxSubnormal
			encode()
			if math.Float64bits(e[200]) != math.Float64bits(maxSubnormal) {
				t.Fatalf("largest-subnormal residual became %v", e[200])
			}
			step(false)
			step(true)
			fill(true)
			EncodeEF32(c, &p, x, e32, stream, scratch)
			for i, v := range e32 {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("float32 residual poisoned at %d: %v", i, v)
				}
			}
			// A few clean rounds later the decoded mass must track the
			// all-ones upload again (within one quantization/selection
			// residual).
			var last []float64
			for step2 := 0; step2 < 4; step2++ {
				step(false)
				last = append(last[:0], x...)
			}
			for i, v := range last {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("decoded update still non-finite at %d after recovery", i)
				}
				if math.Abs(v-1) > 1.5 {
					t.Fatalf("coordinate %d stuck at %v after recovery, want ≈1", i, v)
				}
			}
		})
	}
}

func randVec(r *rng.RNG, d int) []float64 {
	x := make([]float64, d)
	for i := range x {
		x[i] = r.Normal(0, 1)
	}
	return x
}

// TestTopKDropsNaN pins the drop-NaN contract (see the TopK doc comment):
// NaN coordinates are never selected into the top-k — not by magnitude,
// not through a threshold tie, and not on the keep-everything fast path —
// so they never reach the wire, while ±Inf propagates as a genuine
// largest-magnitude coordinate.
func TestTopKDropsNaN(t *testing.T) {
	scratch := make([]float64, 16)

	// A NaN among large finite values must not displace any of them.
	c := &TopK{Frac: 0.5}
	x := []float64{5, math.NaN(), -4, 0.1, 3, 0.2, -2, 0.3}
	var p Payload
	c.Encode(&p, x, nil, scratch)
	wantIdx := []int32{0, 2, 4, 6} // |5|, |-4|, |3|, |-2|
	if len(p.Idx) != len(wantIdx) {
		t.Fatalf("kept %d coords %v, want %v", len(p.Idx), p.Idx, wantIdx)
	}
	for j, i := range wantIdx {
		if p.Idx[j] != i {
			t.Fatalf("kept indices %v, want %v", p.Idx, wantIdx)
		}
	}

	// The keep-everything fast path (k == d) drops NaNs too.
	all := &TopK{Frac: 1}
	c.Grow(&p, len(x))
	all.Encode(&p, x, nil, scratch)
	for j, i := range p.Idx {
		if math.IsNaN(p.Val[j]) {
			t.Fatalf("k=d path transmitted NaN at index %d", i)
		}
	}
	if len(p.Idx) != len(x)-1 {
		t.Fatalf("k=d path kept %d of %d coords, want %d", len(p.Idx), len(x), len(x)-1)
	}

	// A zero threshold with spare tie slots must not emit a NaN either.
	y := []float64{0, math.NaN(), 0, 1}
	half := &TopK{Frac: 0.75} // k = 3 > one positive coord
	half.Encode(&p, y, nil, scratch)
	for j := range p.Idx {
		if math.IsNaN(p.Val[j]) {
			t.Fatal("tie fill transmitted NaN")
		}
	}

	// All-NaN input: empty payload, zero decode.
	z := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	half.Encode(&p, z, nil, scratch)
	if len(p.Idx) != 0 {
		t.Fatalf("all-NaN input kept %d coords", len(p.Idx))
	}
	dst := make([]float64, len(z))
	half.Decode(dst, &p)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("all-NaN decode yielded %v at %d", v, i)
		}
	}

	// +Inf is a genuine magnitude and must still be selected first.
	w := []float64{1, math.Inf(1), -3, 2}
	one := &TopK{Frac: 0.25} // k = 1
	one.Encode(&p, w, nil, scratch)
	if len(p.Idx) != 1 || p.Idx[0] != 1 || !math.IsInf(p.Val[0], 1) {
		t.Fatalf("Inf not selected: idx %v val %v", p.Idx, p.Val)
	}
}

// efBench is BenchmarkEncodeEF's fixture, built once per process: 64
// Normal deltas and 500 clients' residuals per codec, each warmed by
// error-feedback steps so that x+e has the steady-state magnitude profile
// a long run gives it: 200 top-k steps (the residual accumulates the
// dropped coordinates for many rounds) and 20 int8 steps (it stays within
// one quantization step).
var efBench = sync.OnceValue(func() (f struct{ deltas, topk, int8 [][]float64 }) {
	const d, clients = 1354, 500
	g := rng.New(3)
	f.deltas = make([][]float64, 64)
	for i := range f.deltas {
		f.deltas[i] = make([]float64, d)
		for j := range f.deltas[i] {
			f.deltas[i][j] = g.Normal(0, 0.01)
		}
	}
	var p Payload
	x, scratch := make([]float64, d), make([]float64, d)
	warm := func(c Codec, steps int) [][]float64 {
		resid := make([][]float64, clients)
		for ci := range resid {
			resid[ci] = make([]float64, d)
			for s := 0; s < steps; s++ {
				copy(x, f.deltas[(ci+s)%len(f.deltas)])
				EncodeEF(c, &p, x, resid[ci], g, scratch)
			}
		}
		return resid
	}
	f.topk = warm(&TopK{Frac: 0.05}, 200)
	f.int8 = warm(&Int8{Chunk: DefaultChunk}, 20)
	return f
})

// BenchmarkEncodeEF reports the error-feedback step's cost per coordinate
// at the adult MLP's update length, d = 1 354, with 500 clients visited in
// rotation, so the fold reads a residual that has left the cache, as on a
// worker serving 500 clients. Each call first refills x from one of the 64
// deltas; that copy is part of the figure. The f64 and f32 legs are top-k
// at Frac .05 (the failover workload's codec), with EncodeEF and with
// EncodeEF32 over the same residuals narrowed to float32; the int8 legs
// are the default-chunk int8 step the async workload runs at f32.
func BenchmarkEncodeEF(b *testing.B) {
	f := efBench()
	d := len(f.deltas[0])
	x, scratch := make([]float64, d), make([]float64, d)
	r := rng.New(9)
	for _, leg := range []struct {
		name  string
		c     Codec
		resid [][]float64
	}{
		{"", &TopK{Frac: 0.05}, f.topk},
		{"int8/", &Int8{Chunk: DefaultChunk}, f.int8},
	} {
		var p Payload
		leg.c.Grow(&p, d)
		run := func(b *testing.B, step func(i int)) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, f.deltas[i%len(f.deltas)])
				step(i % len(leg.resid))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d), "ns/coord")
		}
		b.Run(leg.name+"f64", func(b *testing.B) {
			resid := make([][]float64, len(leg.resid))
			for i, e := range leg.resid {
				resid[i] = append([]float64(nil), e...)
			}
			run(b, func(i int) { EncodeEF(leg.c, &p, x, resid[i], r, scratch) })
		})
		b.Run(leg.name+"f32", func(b *testing.B) {
			resid := make([][]float32, len(leg.resid))
			for i, e := range leg.resid {
				resid[i] = make([]float32, d)
				vecmath.Narrow(resid[i], e)
			}
			run(b, func(i int) { EncodeEF32(leg.c, &p, x, resid[i], r, scratch) })
		})
	}
}
