package core

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/fl"
	"repro/internal/rng"
	"repro/internal/vecmath"
)

// computeAlphasFor runs Eq. (7) over dense uploads through the path TACO
// runs, computeAlphasUpdates.
func computeAlphasFor(deltas [][]float64) []float64 {
	out := make([]float64, len(deltas))
	computeAlphasUpdates(denseUpdates(deltas), make([]float64, len(deltas[0])), make([]float64, len(deltas)), out)
	return out
}

func denseUpdates(deltas [][]float64) []fl.Update {
	updates := make([]fl.Update, len(deltas))
	for i, d := range deltas {
		updates[i] = fl.Update{Client: i, Delta: d}
	}
	return updates
}

// refAlphas is Eq. (7) written from the paper's formula with plain loops,
// reading nothing from vecmath or from fl.Update's payload views:
//
//	∆̄ = (1/n) Σ_j ∆_j,   α_i = (1 − ‖∆_i‖/Σ_j ‖∆_j‖) · max(cos(∆_i, ∆̄), 0).
//
// Every norm and inner product is taken in the overflow-safe form that
// uploaded deltas need: each vector is divided by its largest magnitude
// first. A vector of zeros has cosine 0, and a round whose norm sum is 0
// or not finite has no geometry, so every α is 0.
// Do not modernize: this is the oracle the production path is held to.
func refAlphas(deltas [][]float64) []float64 {
	n, d := len(deltas), len(deltas[0])
	inv := 1 / float64(n)
	mean := make([]float64, d)
	for _, delta := range deltas {
		for j := 0; j < d; j++ {
			mean[j] += inv * delta[j]
		}
	}
	maxAbs := func(x []float64) float64 {
		m := 0.0
		for j := 0; j < len(x); j++ {
			if math.Abs(x[j]) > m {
				m = math.Abs(x[j])
			}
		}
		return m
	}
	norm := func(x []float64) float64 {
		m := maxAbs(x)
		if m == 0 || math.IsInf(m, 0) {
			return m
		}
		s := 0.0
		for j := 0; j < len(x); j++ {
			s += (x[j] * (1 / m)) * (x[j] * (1 / m))
		}
		return m * math.Sqrt(s)
	}
	cos := func(x, y []float64) float64 {
		mx, my := maxAbs(x), maxAbs(y)
		if mx == 0 || my == 0 {
			return 0
		}
		var dot, nx, ny float64
		for j := 0; j < len(x); j++ {
			sx, sy := x[j]*(1/mx), y[j]*(1/my)
			dot += sx * sy
			nx += sx * sx
			ny += sy * sy
		}
		if nx == 0 || ny == 0 {
			return 0
		}
		return math.Max(-1, math.Min(1, dot/(math.Sqrt(nx)*math.Sqrt(ny))))
	}
	norms := make([]float64, n)
	normSum := 0.0
	for i := 0; i < n; i++ {
		norms[i] = norm(deltas[i])
		normSum += norms[i]
	}
	alphas := make([]float64, n)
	if normSum == 0 || math.IsInf(normSum, 0) || math.IsNaN(normSum) {
		return alphas
	}
	for i := 0; i < n; i++ {
		alphas[i] = (1 - norms[i]/normSum) * math.Max(cos(deltas[i], mean), 0)
	}
	return alphas
}

// oracleRounds draws Eq. (7) rounds: random Normal deltas, the update
// counts the paired pass splits differently (1, 2, 3, 20 and 21, so a
// round ends on a pair or on one unpaired update) at lengths around the
// kernel strides and at the adult MLP's d, then the degenerate shapes —
// every update zero, some updates zero, and ±Inf, NaN and huge
// coordinates planted in one update.
func oracleRounds() [][][]float64 {
	r := rng.New(17)
	var rounds [][][]float64
	draw := func(n, d int) [][]float64 {
		deltas := make([][]float64, n)
		for i := range deltas {
			deltas[i] = make([]float64, d)
			for j := range deltas[i] {
				deltas[i][j] = r.Normal(0, 1) * math.Pow(10, float64(r.IntN(5)-2))
			}
		}
		return deltas
	}
	for trial := 0; trial < 300; trial++ {
		rounds = append(rounds, draw(1+r.IntN(12), 1+r.IntN(40)))
	}
	for _, n := range []int{1, 2, 3, 20, 21} {
		for _, d := range []int{1, 7, 8, 9, 33, 1354} {
			rounds = append(rounds, draw(n, d))
		}
	}
	for _, plant := range []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e308} {
		for trial := 0; trial < 24; trial++ {
			n := 2 + r.IntN(8)
			if trial >= 20 {
				n = []int{1, 3, 20, 21}[trial-20]
			}
			deltas := draw(n, 2+r.IntN(30))
			if plant == 0 && trial%2 == 0 {
				for _, d := range deltas {
					vecmath.Zero(d)
				}
			}
			victim := deltas[r.IntN(len(deltas))]
			if plant == 0 {
				vecmath.Zero(victim)
			}
			victim[r.IntN(len(victim))] = plant
			rounds = append(rounds, deltas)
		}
	}
	return rounds
}

// Upload forms of a mixed buffer: the paired pass reads dense and int8
// uploads through their dense deltas, top-k uploads through their kept
// values.
const (
	formDense = iota
	formInt8
	formTopK
)

// uploads wraps one round's deltas as updates of the given forms (form(i)
// for update i) with clients drawn by client(i). A top-k upload keeps
// about a third of its coordinates, and its delta is the decoded dense
// vector with the rest zeroed, as a top-k upload arrives; an int8 upload
// carries its payload beside its delta, which Eq. (7) reads. decoded
// returns the dense deltas the updates stand for.
func uploads(r *rng.RNG, deltas [][]float64, form, client func(i int) int) (updates []fl.Update, decoded [][]float64) {
	updates = make([]fl.Update, len(deltas))
	decoded = make([][]float64, len(deltas))
	for i, d := range deltas {
		decoded[i] = d
		updates[i] = fl.Update{Client: client(i), Delta: d}
		switch form(i) {
		case formInt8:
			updates[i].Payload = &compress.Payload{Form: compress.KindInt8, N: len(d)}
		case formTopK:
			p := &compress.Payload{Form: compress.KindTopK, N: len(d)}
			decoded[i] = make([]float64, len(d))
			for j, v := range d {
				if r.IntN(3) == 0 {
					p.Idx = append(p.Idx, int32(j))
					p.Val = append(p.Val, v)
					decoded[i][j] = v
				}
			}
			updates[i] = fl.Update{Client: client(i), Delta: decoded[i], Payload: p}
		}
	}
	return updates, decoded
}

// TestComputeAlphasMatchesOracle holds Eq. (7)'s production path — the
// fused norm-and-cosine pass over dense updates, two at a time — to
// refAlphas on three buffers per round: all dense, bit for bit; a buffer
// that mixes dense, int8 and top-k uploads from clients that repeat (as
// a buffered async step can hold), bit for bit for the dense and int8
// entries and within 1e-12 for the top-k ones, whose inner product takes
// the sparse gather; and all top-k, within 1e-12 — each against the
// oracle run on the decoded dense deltas.
func TestComputeAlphasMatchesOracle(t *testing.T) {
	r := rng.New(23)
	run := func(updates []fl.Update) []float64 {
		got := make([]float64, len(updates))
		computeAlphasUpdates(updates, make([]float64, len(updates[0].Delta)), make([]float64, len(updates)), got)
		return got
	}
	for ri, deltas := range oracleRounds() {
		want := refAlphas(deltas)
		if got := computeAlphasFor(deltas); !bitsEqual(got, want) {
			t.Fatalf("round %d, dense: got %v, want %v (deltas %v)", ri, got, want, deltas)
		}
		for _, buf := range []struct {
			name   string
			form   func(i int) int
			client func(i int) int
		}{
			{"mixed", func(i int) int { return (i + ri) % 3 }, func(i int) int { return i / 2 }},
			{"top-k", func(int) int { return formTopK }, func(i int) int { return i }},
		} {
			updates, decoded := uploads(r, deltas, buf.form, buf.client)
			want := refAlphas(decoded)
			got := run(updates)
			for i := range got {
				if buf.form(i) != formTopK {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("round %d, %s buffer, update %d (form %d): got %v, want %v bit for bit", ri, buf.name, i, buf.form(i), got[i], want[i])
					}
				} else if !(math.Abs(got[i]-want[i]) <= 1e-12) {
					t.Fatalf("round %d, %s buffer, top-k update %d: got %v, want %v", ri, buf.name, i, got[i], want[i])
				}
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func TestComputeAlphasBounds(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.IntN(10)
		dim := 1 + r.IntN(20)
		deltas := make([][]float64, n)
		for i := range deltas {
			deltas[i] = make([]float64, dim)
			for j := range deltas[i] {
				deltas[i][j] = r.Normal(0, 1)
			}
		}
		alphas := computeAlphasFor(deltas)
		for i, a := range alphas {
			if a < 0 || a > 1 || math.IsNaN(a) {
				t.Fatalf("alpha[%d] = %v outside [0,1]", i, a)
			}
		}
	}
}

func TestComputeAlphasIdenticalClients(t *testing.T) {
	// All clients uploading the same delta get identical alphas of
	// (1 − 1/N)·1.
	n, dim := 5, 8
	base := make([]float64, dim)
	r := rng.New(2)
	for j := range base {
		base[j] = r.Normal(0, 1)
	}
	deltas := make([][]float64, n)
	for i := range deltas {
		deltas[i] = vecmath.Clone(base)
	}
	alphas := computeAlphasFor(deltas)
	want := 1 - 1.0/float64(n)
	for i, a := range alphas {
		if math.Abs(a-want) > 1e-9 {
			t.Fatalf("alpha[%d] = %v, want %v", i, a, want)
		}
	}
}

// TestComputeAlphasDirectionGeometry verifies the Fig. 3 (left) intuition:
// a client whose delta opposes the crowd gets a smaller alpha.
func TestComputeAlphasDirectionGeometry(t *testing.T) {
	deltas := [][]float64{
		{1, 0}, {1, 0.1}, {1, -0.1}, {-1, 0}, // client 3 opposes
	}
	alphas := computeAlphasFor(deltas)
	for i := 0; i < 3; i++ {
		if alphas[3] >= alphas[i] {
			t.Fatalf("opposing client alpha %v not below aligned client %d's %v", alphas[3], i, alphas[i])
		}
	}
	if alphas[3] != 0 {
		t.Fatalf("fully opposing client must clamp to 0, got %v", alphas[3])
	}
}

// TestComputeAlphasMagnitudeGeometry verifies the Fig. 3 (right) intuition:
// with equal directions, the client with the larger magnitude gets the
// smaller alpha (and therefore the larger correction factor 1−α).
func TestComputeAlphasMagnitudeGeometry(t *testing.T) {
	deltas := [][]float64{
		{1, 0}, {1, 0}, {10, 0},
	}
	alphas := computeAlphasFor(deltas)
	if alphas[2] >= alphas[0] {
		t.Fatalf("large-magnitude client alpha %v not below small-magnitude %v", alphas[2], alphas[0])
	}
}

func TestComputeAlphasZeroDeltas(t *testing.T) {
	deltas := [][]float64{{0, 0}, {0, 0}}
	alphas := computeAlphasFor(deltas)
	for i, a := range alphas {
		if a != 0 {
			t.Fatalf("alpha[%d] = %v for all-zero deltas, want 0", i, a)
		}
	}
}

// TestCorollary2Optimality numerically verifies Corollary 2: among weight
// assignments with a fixed total correction Σ(1−α_i) = σ, the error term
// Y_t ∝ [Σ(1−α_i)·Σ(µ_i/c_i)]² ... with the Cauchy-Schwarz argument the
// minimizing choice sets (1−α_i) ∝ µ_i/c_i. We verify by comparing the
// bound's inner product form Σ(1−α_i)·(µ_i/c_i) under the proportional
// assignment against random assignments with the same Σ(1−α_i) and norm.
func TestCorollary2Optimality(t *testing.T) {
	r := rng.New(5)
	n := 10
	ratio := make([]float64, n) // µ_i/c_i per client
	for i := range ratio {
		ratio[i] = 0.1 + r.Float64()*2
	}
	// The Cauchy-Schwarz statement: for vectors u=(1−α) and v=ratio with
	// ‖u‖ fixed, ⟨u,v⟩ is maximized (hence the bound's slack minimized and
	// equality attained) when u ∝ v. Verify ⟨u*,v⟩ ≥ ⟨u_rand,v⟩ for random
	// u with the same Euclidean norm.
	vnorm := vecmath.Norm2(ratio)
	ustar := make([]float64, n)
	for i := range ustar {
		ustar[i] = ratio[i] / vnorm // unit-norm proportional assignment
	}
	best := vecmath.Dot(ustar, ratio)
	for trial := 0; trial < 500; trial++ {
		u := make([]float64, n)
		for i := range u {
			u[i] = r.Float64()
		}
		norm := vecmath.Norm2(u)
		for i := range u {
			u[i] /= norm
		}
		if got := vecmath.Dot(u, ratio); got > best+1e-9 {
			t.Fatalf("random assignment %v beats proportional: %v > %v", u, got, best)
		}
	}
}

func TestAlphaTrackerSmoothing(t *testing.T) {
	tr := NewAlphaTracker(2, 2, 0.5)
	updates := []fl.Update{
		{Client: 0, Delta: []float64{1, 0}},
		{Client: 1, Delta: []float64{1, 0}},
	}
	// Raw new alphas would be (1 − 1/2)·1 = 0.5 each; with smoothing 0.8
	// starting from 0.5 they stay 0.5.
	tr.Update(updates, 0.8)
	if math.Abs(tr.Alpha(0)-0.5) > 1e-12 {
		t.Fatalf("alpha = %v, want 0.5", tr.Alpha(0))
	}
	// Opposing uploads: raw alpha of client 1 clamps to 0; smoothed value
	// must sit between old (0.5) and new (0).
	updates[1].Delta = []float64{-1, 0}
	tr.Update(updates, 0.5)
	a := tr.Alpha(1)
	if a <= 0 || a >= 0.5 {
		t.Fatalf("smoothed alpha %v not in (0, 0.5)", a)
	}
}

// TestAlphaTrackerStoresMean: Update stores Eq. (14)'s α_t over the
// round's participants, which TACO's Eq. (15) and the hybrids read back.
func TestAlphaTrackerStoresMean(t *testing.T) {
	tr := NewAlphaTracker(3, 2, 0.1)
	if tr.Mean() != 0.1 {
		t.Fatalf("initial mean = %v, want the initial coefficient 0.1", tr.Mean())
	}
	updates := []fl.Update{
		{Client: 0, Delta: []float64{1, 0}},
		{Client: 2, Delta: []float64{1, 0}},
	}
	tr.Update(updates, 0)
	// Client 1 did not participate: keeps its initial value.
	if tr.Alpha(1) != 0.1 {
		t.Fatalf("non-participant alpha = %v, want 0.1", tr.Alpha(1))
	}
	want := (tr.Alpha(0) + tr.Alpha(2)) / 2
	if tr.Mean() != want {
		t.Fatalf("Mean = %v, want %v", tr.Mean(), want)
	}
	tr.Update(nil, 0)
	if tr.Mean() != 0 {
		t.Fatal("mean over no updates must be 0")
	}
}
