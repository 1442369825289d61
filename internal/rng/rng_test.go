package rng

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

// TestPCGMatchesStdlib pins the package's own PCG to math/rand/v2's:
// for many seeds, a random mix of every draw the package makes —
// Uint64, Float64, bulk Float64s, IntN, and the stdlib samplers run
// over the owned PCG through the package's own API (Perm, Normal) —
// must equal the same calls on a
// Rand over rand.NewPCG with the same seed words, draw for draw. The
// cursors must marshal to the same bytes, and each type must restore
// from the other's bytes and continue in step.
func TestPCGMatchesStdlib(t *testing.T) {
	ops := rand.New(rand.NewPCG(5, 6))
	buf := make([]float64, 300)
	for seed := uint64(0); seed < 64; seed++ {
		got := New(seed)
		ref := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
		want := rand.New(ref)
		for step := 0; step < 200; step++ {
			switch op := ops.IntN(7); op {
			case 0:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d step %d: Uint64 %x, stdlib %x", seed, step, g, w)
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d step %d: Float64 %v, stdlib %v", seed, step, g, w)
				}
			case 2:
				dst := buf[:ops.IntN(len(buf)+1)]
				got.Float64s(dst)
				for i, g := range dst {
					if w := want.Float64(); g != w {
						t.Fatalf("seed %d step %d: Float64s[%d] of %d = %v, stdlib %v", seed, step, i, len(dst), g, w)
					}
				}
			case 3:
				n := 1 + ops.IntN(1000)
				if g, w := got.IntN(n), want.IntN(n); g != w {
					t.Fatalf("seed %d step %d: IntN(%d) %d, stdlib %d", seed, step, n, g, w)
				}
			case 4:
				n := ops.IntN(40)
				g, w := got.Perm(n), want.Perm(n)
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("seed %d step %d: Perm(%d) %v, stdlib %v", seed, step, n, g, w)
					}
				}
			case 5:
				if g, w := got.Normal(0, 1), want.NormFloat64(); g != w {
					t.Fatalf("seed %d step %d: Normal(0, 1) %v, stdlib NormFloat64 %v", seed, step, g, w)
				}
			case 6:
				g, err := got.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				w, err := ref.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(g, w) {
					t.Fatalf("seed %d step %d: MarshalBinary %x, stdlib %x", seed, step, g, w)
				}
				if a, _ := got.AppendBinary([]byte("x")); !bytes.Equal(a[1:], w) {
					t.Fatalf("seed %d step %d: AppendBinary %x, stdlib %x", seed, step, a[1:], w)
				}
				// Swap cursors: each side restores from the other's bytes.
				if err := got.UnmarshalBinary(w); err != nil {
					t.Fatalf("seed %d: UnmarshalBinary of the stdlib's cursor: %v", seed, err)
				}
				if err := ref.UnmarshalBinary(g); err != nil {
					t.Fatalf("seed %d: stdlib UnmarshalBinary of our cursor: %v", seed, err)
				}
			}
		}
	}
	bad := New(1)
	for _, data := range [][]byte{nil, []byte("pcg:"), []byte("PCG:0123456789abcdef")} {
		if bad.UnmarshalBinary(data) == nil || rand.NewPCG(0, 0).UnmarshalBinary(data) == nil {
			t.Fatalf("UnmarshalBinary(%q) accepted a malformed cursor", data)
		}
	}
}

// TestIntNMatchesStdlib pins IntN to math/rand/v2's Rand.IntN for bounds
// on both sides of the power-of-two mask branch and deep into Lemire's
// rejection loop (1<<62+1 rejects about a quarter of its draws): the
// same values draw for draw, and the same cursor afterwards.
func TestIntNMatchesStdlib(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 1000, 1 << 31, 1<<32 + 3, 1<<62 + 1} {
		for seed := uint64(0); seed < 8; seed++ {
			got := New(seed)
			want := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
			for i := 0; i < 500; i++ {
				if g, w := got.IntN(n), want.IntN(n); g != w {
					t.Fatalf("n=%d seed=%d draw %d: IntN %d, stdlib %d", n, seed, i, g, w)
				}
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("n=%d seed=%d: next draw %x, stdlib %x", n, seed, g, w)
			}
		}
	}
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("IntN(%d) did not panic", n)
				}
			}()
			New(1).IntN(n)
		}()
	}
}

// deriveIndices is the order TestDeriveFrozen derives children in, one
// parent per (seed, label) row: low and high bytes of the index, and -1
// for all eight.
var deriveIndices = [...]int{0, 1, 255, 256, 99999, -1}

// deriveFrozen holds each child's first draw, computed with the
// hash/fnv-based Derive this package used before the mix was inlined.
var deriveFrozen = []struct {
	seed  uint64
	label string
	first [len(deriveIndices)]uint64
	next  uint64 // the parent's draw after its six derivations
}{
	{0, "", [...]uint64{0x942762eb2b59d060, 0x61ea491f2332a37c, 0xb7cc9c1e90832c17, 0x0a80776ce0356984, 0xec67c5965094eb41, 0xcb4f4e1b627f7ceb}, 0xc0c6594f8b0716a3},
	{1, "init", [...]uint64{0x8a6df7fa91bb9c69, 0x509c3dd323454b7f, 0x85649ba44a854ab0, 0xb7223ecbc361ca06, 0xb6f544c31664e437, 0xb601e90865244bff}, 0xa4f9243384528c5a},
	{1, "sampler", [...]uint64{0xae503810d0375805, 0xeca06ae65f62da4a, 0x08860c8ed689715a, 0x47e5173cdc919a41, 0xb64c40b0b8650646, 0x2c26273626f0dfdc}, 0xa4f9243384528c5a},
	{1, "compress", [...]uint64{0xeba434b72ca3a85a, 0x648370e2ce4ba7aa, 0xa947bfbd9d6b501e, 0x353b9f22d7c8c8e9, 0x225e2d13bbca610c, 0x9720cf7db1592e34}, 0xa4f9243384528c5a},
	{1, "fault", [...]uint64{0x609a17dc068d18cc, 0x6cfb6b5d2d79ab0d, 0x24e25c8ea79653b7, 0x1c54e56d746fb0b7, 0x20fcd29074e3a62e, 0x9f8628de3070ece3}, 0xa4f9243384528c5a},
	{7, "sampler", [...]uint64{0x27c4856a0e1d562f, 0xebb060c4407004b0, 0x8c13d79b8fc43d98, 0x71c85fe79f0e2636, 0x35b8deaa738186e2, 0x78aeaa6cb360610c}, 0x7a5eefb48d711260},
	{1 << 63, "fault", [...]uint64{0xec1129fb879ba852, 0xe5ce1c07615bfbb6, 0xcebbf18d83d044cb, 0xf026c4a936a23c07, 0xfdad098258375eb8, 0xdb9d6690d83bf3f0}, 0x581e24db75e7593f},
}

// TestDeriveFrozen pins the inline FNV-1a mix: Derive and DeriveInto must
// reproduce the first draws of the frozen table and leave the parent at
// the same cursor.
func TestDeriveFrozen(t *testing.T) {
	for _, row := range deriveFrozen {
		viaNew, viaInto := New(row.seed), New(row.seed)
		dst := New(99)
		for i, idx := range deriveIndices {
			child := viaNew.Derive(row.label, idx)
			if g := child.Uint64(); g != row.first[i] {
				t.Fatalf("seed %d: Derive(%q, %d) first draw %#x, frozen %#x", row.seed, row.label, idx, g, row.first[i])
			}
			dst.Perm(3) // a used stream, reseeded in place
			viaInto.DeriveInto(dst, row.label, idx)
			if g := dst.Uint64(); g != row.first[i] {
				t.Fatalf("seed %d: DeriveInto(%q, %d) first draw %#x, frozen %#x", row.seed, row.label, idx, g, row.first[i])
			}
			if g, w := dst.Normal(0, 1), child.Normal(0, 1); g != w {
				t.Fatalf("seed %d: DeriveInto(%q, %d) Normal %v, Derive's stream %v", row.seed, row.label, idx, g, w)
			}
		}
		if g := viaNew.Uint64(); g != row.next {
			t.Fatalf("seed %d %q: parent's next draw %#x, frozen %#x", row.seed, row.label, g, row.next)
		}
		if g := viaInto.Uint64(); g != row.next {
			t.Fatalf("seed %d %q: parent's next draw after DeriveInto %#x, frozen %#x", row.seed, row.label, g, row.next)
		}
	}
}

// TestDeriveNMatchesDerive pins the batch form to n successive Derive
// calls — the frozen sequence for seed 3, whole streams beyond the first
// draw, the stdlib samplers included — and the parent's cursor after
// them. It must allocate the slab and nothing else.
func TestDeriveNMatchesDerive(t *testing.T) {
	frozen := []uint64{0x76c15d5992cba774, 0x681595aad5932e4f, 0x465298a22587166d, 0xf598051964fae5f0, 0x18cd2d00c53773c5, 0xa4164beac45d3e33}
	batch, serial := New(3), New(3)
	got := batch.DeriveN("sampler", len(frozen))
	for i := range got {
		want := serial.Derive("sampler", i)
		if g := got[i].Uint64(); g != frozen[i] || g != want.Uint64() {
			t.Fatalf("DeriveN[%d] first draw %#x, frozen %#x", i, g, frozen[i])
		}
		for k := 0; k < 20; k++ {
			if g, w := got[i].Normal(0, 1), want.Normal(0, 1); g != w {
				t.Fatalf("DeriveN[%d] draw %d: Normal %v, Derive's stream %v", i, k, g, w)
			}
			if g, w := got[i].IntN(1000), want.IntN(1000); g != w {
				t.Fatalf("DeriveN[%d] draw %d: IntN %d, Derive's stream %d", i, k, g, w)
			}
		}
	}
	if g, w := batch.Uint64(), serial.Uint64(); g != w || g != 0x1b8b0d4d00bf678 {
		t.Fatalf("parent's next draw %#x after DeriveN, %#x after Derive, frozen %#x", g, w, 0x1b8b0d4d00bf678)
	}
	r, dst := New(5), New(6)
	if a := testing.AllocsPerRun(100, func() { _ = r.DeriveN("sampler", 1000) }); a != 1 {
		t.Fatalf("DeriveN(1000) makes %v allocations, want 1 (the slab)", a)
	}
	if a := testing.AllocsPerRun(100, func() { r.DeriveInto(dst, "fault", 7); _ = dst.IntN(10) + int(dst.Normal(0, 1)) }); a != 0 {
		t.Fatalf("DeriveInto + IntN + Normal makes %v allocations, want 0", a)
	}
}

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield the same stream")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds coincide %d/64 times", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	c0 := parent.Derive("client", 0)
	parent2 := New(7)
	c0b := parent2.Derive("client", 0)
	for i := 0; i < 50; i++ {
		if c0.Uint64() != c0b.Uint64() {
			t.Fatal("derived stream must be reproducible from the parent seed")
		}
	}
	parent3 := New(7)
	c1 := parent3.Derive("client", 1)
	c0c := New(7).Derive("client", 0)
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c0c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("derived streams with different indices must differ")
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("Normal mean = %v, want ≈3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Normal variance = %v, want ≈4", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	// Gamma(alpha) with scale 1 has mean alpha and variance alpha.
	for _, alpha := range []float64{0.2, 0.5, 1, 2.5, 10} {
		r := New(13)
		const n = 150000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := r.Gamma(alpha)
			if v < 0 {
				t.Fatalf("Gamma(%v) produced negative sample %v", alpha, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-alpha) > 0.05*math.Max(1, alpha) {
			t.Fatalf("Gamma(%v) mean = %v, want ≈%v", alpha, mean, alpha)
		}
		if math.Abs(variance-alpha) > 0.12*math.Max(1, alpha) {
			t.Fatalf("Gamma(%v) variance = %v, want ≈%v", alpha, variance, alpha)
		}
	}
}

func TestGammaPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alpha <= 0")
		}
	}()
	New(1).Gamma(0)
}

func TestDirichletSimplex(t *testing.T) {
	r := New(17)
	for _, phi := range []float64{0.1, 0.5, 1, 5} {
		for trial := 0; trial < 200; trial++ {
			p := r.Dirichlet(phi, 10)
			var sum float64
			for _, v := range p {
				if v < 0 {
					t.Fatalf("Dirichlet produced negative weight %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("Dirichlet weights sum to %v, want 1", sum)
			}
		}
	}
}

func TestDirichletSkewIncreasesAsPhiShrinks(t *testing.T) {
	// With small phi, most mass concentrates on few categories; measure the
	// average max weight.
	avgMax := func(phi float64) float64 {
		r := New(19)
		var total float64
		const trials = 500
		for i := 0; i < trials; i++ {
			p := r.Dirichlet(phi, 10)
			m := 0.0
			for _, v := range p {
				if v > m {
					m = v
				}
			}
			total += m
		}
		return total / trials
	}
	small := avgMax(0.1)
	large := avgMax(10)
	if small <= large {
		t.Fatalf("expected Dir(0.1) to be more skewed than Dir(10): %v vs %v", small, large)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(23)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	if counts[1] != 0 {
		t.Fatal("zero-weight category was sampled")
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("category ratio = %v, want ≈3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	t.Run("all zero", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		New(1).Categorical([]float64{0, 0})
	})
	t.Run("negative", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		New(1).Categorical([]float64{1, -1})
	})
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(29)
	got := r.SampleWithoutReplacement(10, 5)
	if len(got) != 5 || cap(got) != 5 {
		t.Fatalf("got %d samples (capacity %d), want 5 (5)", len(got), cap(got))
	}
	seen := make(map[int]bool, len(got))
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("sample %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
}

// TestSampleIntoMatchesPerm pins SampleInto to the stdlib: for sizes on
// both sides of the power-of-two mask branch, dst must equal Perm(n)[:k]
// from a twin stream, and the next draw must agree — the same cursor.
func TestSampleIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17, 1000, 1024, 4097, 100000} {
		scratch := make([]int32, n)
		for seed := uint64(1); seed <= 5; seed++ {
			for _, k := range []int{1, (n + 9) / 10, n} {
				got, want := New(seed), New(seed)
				dst := make([]int, k)
				got.SampleInto(dst, scratch, n)
				perm := want.Perm(n)[:k]
				for i := range dst {
					if dst[i] != perm[i] {
						t.Fatalf("n=%d seed=%d k=%d: dst[%d] = %d, Perm gives %d", n, seed, k, i, dst[i], perm[i])
					}
				}
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("n=%d seed=%d k=%d: next draw %x, Perm's stream gives %x", n, seed, k, g, w)
				}
			}
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d in permutation", v)
		}
		seen[v] = true
	}
}

// TestFloydIntoAccounting pins FloydInto's draw order exactly: a twin
// stream making k successive IntN(n−k+i+1) calls gives every value, with
// j = n−k+i in place of a draw that is already in dst[:i], and ends at
// the same cursor. The values are distinct and in [0, n), and the mark
// bitset is all zero again afterwards. The sizes cover k = 0, k = n and
// n = 1, both uint64n branches, and bitsets whose last word is partial.
func TestFloydIntoAccounting(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 63, 64, 65, 1000, 100_000} {
		mark := make([]uint64, (n+63)/64)
		for _, k := range []int{0, 1, (n + 9) / 10, n / 2, n} {
			for seed := uint64(1); seed <= 3; seed++ {
				got, twin := New(seed), New(seed)
				dst := make([]int, k)
				got.FloydInto(dst, mark, n)
				seen := make(map[int]bool, k)
				for i, v := range dst {
					j := n - k + i
					want := twin.IntN(j + 1)
					if seen[want] {
						want = j
					}
					if v != want {
						t.Fatalf("n=%d k=%d seed=%d: dst[%d] = %d, the twin stream gives %d", n, k, seed, i, v, want)
					}
					if v < 0 || v >= n || seen[v] {
						t.Fatalf("n=%d k=%d seed=%d: dst[%d] = %d repeats or leaves [0, %d)", n, k, seed, i, v, n)
					}
					seen[v] = true
				}
				gc, _ := got.MarshalBinary()
				tc, _ := twin.MarshalBinary()
				if !bytes.Equal(gc, tc) {
					t.Fatalf("n=%d k=%d seed=%d: cursor %x after the draw, %x after %d IntN calls", n, k, seed, gc, tc, k)
				}
				for w, bits := range mark {
					if bits != 0 {
						t.Fatalf("n=%d k=%d seed=%d: mark word %d left at %x", n, k, seed, w, bits)
					}
				}
			}
		}
	}
	for _, c := range []struct {
		name    string
		k, n, m int
	}{{"k>n", 4, 3, 1}, {"short mark", 1, 65, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FloydInto(k=%d, %d mark words, n=%d) did not panic", c.name, c.k, c.m, c.n)
				}
			}()
			New(1).FloydInto(make([]int, c.k), make([]uint64, c.m), c.n)
		}()
	}
}

// TestFloydIntoUniform checks FloydInto against the uniform law on
// k-subsets of [0, n), an oracle outside the sampler: every value is in
// the sample with probability k/n, and every pair with probability
// k(k−1)/(n(n−1)). Fixed before the first run: 200 000 draws from one
// stream, New(1987), per shape, and critical values of the χ² law at
// p = 1e-6.
//
//   - Singles at (n, k) = (50, 5) and (1000, 10). The inclusion counts
//     sum to trials·k, and their covariance is a·(I − J/n) with
//     a = trials·k(n−k)/(n(n−1)), so Σ(c − E)²/a is χ² with n−1 degrees
//     of freedom: critical values 111.1 (df 49) and 1226.0 (df 999).
//   - Pairs at (50, 5): Pearson's Σ(c − E)²/E over the 1 225 pairs,
//     against 1473.7 (df 1224). Its mean under the law is 1 215.
func TestFloydIntoUniform(t *testing.T) {
	const trials = 200_000
	for _, c := range []struct {
		n, k          int
		single, pairs float64 // critical values; 0 skips the pair test
	}{
		{50, 5, 111.1, 1473.7},
		{1000, 10, 1226.0, 0},
	} {
		r := New(1987)
		mark := make([]uint64, (c.n+63)/64)
		dst := make([]int, c.k)
		singles := make([]float64, c.n)
		var pairs []float64 // [u*n+v] for u < v
		if c.pairs != 0 {
			pairs = make([]float64, c.n*c.n)
		}
		for range trials {
			r.FloydInto(dst, mark, c.n)
			for i, u := range dst {
				singles[u]++
				if c.pairs == 0 {
					continue
				}
				for _, v := range dst[i+1:] {
					pairs[min(u, v)*c.n+max(u, v)]++
				}
			}
		}
		n, k := float64(c.n), float64(c.k)
		e := trials * k / n
		a := trials * k * (n - k) / (n * (n - 1))
		var chi float64
		for _, cnt := range singles {
			chi += (cnt - e) * (cnt - e) / a
		}
		t.Logf("(n, k) = (%d, %d): singles χ² = %.1f on df %d (critical %.1f)", c.n, c.k, chi, c.n-1, c.single)
		if chi > c.single {
			t.Errorf("(n, k) = (%d, %d): single-inclusion χ² = %.1f exceeds %.1f", c.n, c.k, chi, c.single)
		}
		if c.pairs == 0 {
			continue
		}
		e = trials * k * (k - 1) / (n * (n - 1))
		chi = 0
		for u := 0; u < c.n; u++ {
			for v := u + 1; v < c.n; v++ {
				cnt := pairs[u*c.n+v]
				chi += (cnt - e) * (cnt - e) / e
			}
		}
		df := c.n*(c.n-1)/2 - 1
		t.Logf("(n, k) = (%d, %d): pairs χ² = %.1f on df %d (critical %.1f)", c.n, c.k, chi, df, c.pairs)
		if chi > c.pairs {
			t.Errorf("(n, k) = (%d, %d): pairwise-inclusion χ² = %.1f exceeds %.1f", c.n, c.k, chi, c.pairs)
		}
	}
}
