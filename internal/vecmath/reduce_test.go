package vecmath

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// maxAbsDef, norm2SafeDef and cosineDef are the scalar definitions the
// reductions are pinned against: one loop each, every chain in index
// order, written as the pre-fusion bodies were.
func maxAbsDef(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func norm2SafeDef(x []float64) float64 {
	m := maxAbsDef(x)
	if m == 0 || math.IsInf(m, 0) {
		return m
	}
	inv := 1 / m
	var s float64
	for _, v := range x {
		sv := v * inv
		s += float64(sv * sv)
	}
	return m * math.Sqrt(s)
}

func cosineDef(a, b []float64) float64 {
	ma, mb := maxAbsDef(a), maxAbsDef(b)
	if ma == 0 || mb == 0 {
		return 0
	}
	invA, invB := 1/ma, 1/mb
	var dot, na, nb float64
	for i, ai := range a {
		sa := ai * invA
		sb := b[i] * invB
		dot += float64(sa * sb)
		na += float64(sa * sa)
		nb += float64(sb * sb)
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return Clamp(dot/(math.Sqrt(na)*math.Sqrt(nb)), -1, 1)
}

// reducePool holds the specials the MaxAbs contract names — NaN with
// payloads and either sign (quiet and signalling), ±Inf, ±0, the smallest
// and largest subnormals, the largest finite value — and ±1.
func reducePool() []float64 {
	var pool []float64
	for _, b := range []uint64{
		0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF,
		0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x7FF0000000000000, 0x7FEFFFFFFFFFFFFF,
		0x3FF0000000000000, 0x0000000000000000,
	} {
		pool = append(pool, math.Float64frombits(b), math.Float64frombits(b|1<<63))
	}
	return pool
}

// reduceLengths is every length from 0 to 67 (every head/tail split of
// the 16- and 8-element strides, several times over) plus the adult MLP's
// and a larger parameter count.
func reduceLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1354, 4498)
}

// TestMaxAbsContract pins MaxAbs — the AVX2 head plus Go tail, or the Go
// loop alone under -tags noasm — to the scalar definition bit for bit:
// every special at every position of every length, from unaligned starts,
// all-NaN and all-zero vectors, and one dominant element in every lane of
// otherwise random (and NaN-sprinkled) data.
func TestMaxAbsContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	pool := reducePool()
	check := func(what string, x []float64) {
		t.Helper()
		if got, want := math.Float64bits(MaxAbs(x)), math.Float64bits(maxAbsDef(x)); got != want {
			t.Fatalf("%s (n=%d): MaxAbs = %#x, definition gives %#x", what, len(x), got, want)
		}
	}
	for _, n := range reduceLengths() {
		buf := make([]float64, n+3)
		for off := 0; off < 4; off++ {
			x := buf[off : off+n]
			for rot := range pool {
				for i := range x {
					x[i] = pool[(i*7+rot)%len(pool)]
				}
				check(fmt.Sprintf("specials rot=%d off=%d", rot, off), x)
			}
			for _, fill := range []uint64{0x7FF8000000000001, 0xFFF0000000000002, 0, 1 << 63} {
				for i := range x {
					x[i] = math.Float64frombits(fill)
				}
				check(fmt.Sprintf("all %#x off=%d", fill, off), x)
			}
			stride := max(1, n/97)
			for p := 0; p < n; p += stride {
				for i := range x {
					x[i] = rng.NormFloat64()
					if rng.IntN(5) == 0 {
						x[i] = math.NaN()
					}
				}
				x[p] = math.Copysign(math.Nextafter(1e3, 0), float64(p%2*2-1))
				check(fmt.Sprintf("peak at %d off=%d", p, off), x)
				x[p] = math.Float64frombits(0x000FFFFFFFFFFFFF) // a subnormal peak among zeros
				for i := range x {
					if i != p {
						x[i] = 0
					}
				}
				check(fmt.Sprintf("subnormal at %d off=%d", p, off), x)
			}
		}
	}
}

// reduceVectors returns test vectors of length n: random data at several
// scales, the same with NaN, ±Inf, 1e300 or subnormal elements mixed in,
// and the all-zero vector.
func reduceVectors(rng *rand.Rand, n int) [][]float64 {
	pool := reducePool()
	var vs [][]float64
	for k := 0; k < 12; k++ {
		v := make([]float64, n)
		scale := []float64{1, 1e-310, 1e300, 1e-3}[k%4]
		for i := range v {
			v[i] = scale * rng.NormFloat64()
		}
		if k >= 4 && n > 0 {
			v[rng.IntN(n)] = pool[rng.IntN(len(pool))]
		}
		if k >= 8 && n > 0 {
			v[rng.IntN(n)] = pool[rng.IntN(len(pool))]
		}
		vs = append(vs, v)
	}
	return append(vs, make([]float64, n))
}

// TestReductionsMatchDefinitions pins Norm2Safe, ScanOf, ScanPair,
// CosineSimilarity and CosineRef's fused, paired and scanned forms (the
// last given the Scan that ScanOf or ScanPair took) to the scalar
// definitions bit for bit, every vector against every other, degenerate
// and overflowing inputs included. A NaN result only has to be NaN: when
// both operands of a multiply or add are NaN, amd64 returns the first
// one's payload, and Go orders the operands of these commutative
// operations as register allocation suits, so which payload survives is
// not fixed by the source even for one loop compiled twice.
func TestReductionsMatchDefinitions(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 53))
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%s = %v (%#x), definition gives %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 17, 33, 1354} {
		vs := reduceVectors(rng, n)
		for j, ref := range vs {
			r := NewCosineRef(ref)
			same(fmt.Sprintf("n=%d v%d Max", n, j), r.Max(), maxAbsDef(ref))
			wantScaled := 0.0
			if m := maxAbsDef(ref); m != 0 && !math.IsInf(m, 0) {
				wantScaled = norm2SafeDef(ref) / m
			}
			same(fmt.Sprintf("n=%d v%d ScaledNorm", n, j), r.ScaledNorm(), wantScaled)
			for i, a := range vs {
				b := vs[(i+j+1)%len(vs)]
				what := fmt.Sprintf("n=%d a=v%d b=v%d ref=v%d", n, i, (i+j+1)%len(vs), j)
				same(what+" Norm2Safe(a)", Norm2Safe(a), norm2SafeDef(a))
				same(what+" CosineSimilarity", CosineSimilarity(a, ref), cosineDef(a, ref))
				sa, sb := ScanPair(a, b)
				same(what+" ScanPair a", sa.Norm(), norm2SafeDef(a))
				same(what+" ScanPair b", sb.Norm(), norm2SafeDef(b))
				same(what+" ScanPair max a", sa.Max, maxAbsDef(a))
				same(what+" ScanPair max b", sb.Max, maxAbsDef(b))
				if s := ScanOf(a); math.Float64bits(s.Max) != math.Float64bits(sa.Max) || math.Float64bits(s.Sq) != math.Float64bits(sa.Sq) {
					t.Fatalf("%s: ScanOf(a) = %v, ScanPair's a %v", what, s, sa)
				}
				norm, cos := r.Cosine(a, sa)
				same(what+" Cosine norm", norm, norm2SafeDef(a))
				same(what+" Cosine cos", cos, cosineDef(a, ref))
				na, ca, nb, cb := r.CosinePair(a, b, sa, sb)
				same(what+" CosinePair norm a", na, norm2SafeDef(a))
				same(what+" CosinePair cos a", ca, cosineDef(a, ref))
				same(what+" CosinePair norm b", nb, norm2SafeDef(b))
				same(what+" CosinePair cos b", cb, cosineDef(b, ref))
				norm, cos = r.NormCosine(a)
				same(what+" NormCosine norm", norm, norm2SafeDef(a))
				same(what+" NormCosine cos", cos, cosineDef(a, ref))
				na, ca, nb, cb = r.NormCosinePair(a, b)
				same(what+" NormCosinePair norm a", na, norm2SafeDef(a))
				same(what+" NormCosinePair cos a", ca, cosineDef(a, ref))
				same(what+" NormCosinePair norm b", nb, norm2SafeDef(b))
				same(what+" NormCosinePair cos b", cb, cosineDef(b, ref))
			}
		}
	}
}

// BenchmarkReductions reports the server step's reductions in ns per
// coordinate of each vector reduced, at the adult MLP's parameter count
// and a larger one: MaxAbs, Norm2Safe and CosineSimilarity as the
// aggregation rules called them one by one, then the paired scan, the
// fused and paired norm-and-cosine passes that replace them, and the
// dot-only cosines that a kept scan leaves (the
// reference side of a cosine is taken once, outside the timed loop). The
// inputs cycle through 16 random vectors so a branchy loop cannot learn
// one.
func BenchmarkReductions(b *testing.B) {
	for _, d := range []int{1354, 4498} {
		rng := rand.New(rand.NewPCG(59, uint64(d)))
		vs := make([][]float64, 16)
		for k := range vs {
			vs[k] = make([]float64, d)
			for i := range vs[k] {
				vs[k][i] = rng.NormFloat64()
			}
		}
		ref := NewCosineRef(vs[0])
		var sink float64
		run := func(name string, vecs int, body func(k int)) {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					body(i % len(vs))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vecs*d), "ns/coord")
			})
		}
		run("MaxAbs", 1, func(k int) { sink += MaxAbs(vs[k]) })
		run("Norm2Safe", 1, func(k int) { sink += Norm2Safe(vs[k]) })
		run("CosineSimilarity", 1, func(k int) { sink += CosineSimilarity(vs[k], vs[0]) })
		run("ScanPair", 2, func(k int) {
			x, y := ScanPair(vs[k], vs[(k+1)%len(vs)])
			sink += x.Sq + y.Sq
		})
		run("NormCosine", 1, func(k int) {
			n, c := ref.NormCosine(vs[k])
			sink += n + c
		})
		run("NormCosinePair", 2, func(k int) {
			n0, c0, n1, c1 := ref.NormCosinePair(vs[k], vs[(k+1)%len(vs)])
			sink += n0 + c0 + n1 + c1
		})
		scans := make([]Scan, len(vs))
		for k, v := range vs {
			scans[k] = ScanOf(v)
		}
		run("CosinePair", 2, func(k int) {
			k1 := (k + 1) % len(vs)
			n0, c0, n1, c1 := ref.CosinePair(vs[k], vs[k1], scans[k], scans[k1])
			sink += n0 + c0 + n1 + c1
		})
		if math.IsNaN(sink) {
			b.Fatal("NaN from finite inputs")
		}
	}
}
