package compress

import (
	"fmt"
	"math"
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
