package aggstack

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func randNormsMult(r *rng.RNG, n int) (norms, mult []float64) {
	norms = make([]float64, n)
	mult = make([]float64, n)
	for i := range norms {
		norms[i] = math.Pow(10, -1+3*r.Float64())
		mult[i] = 1
		if r.Float64() < 0.15 {
			// Entries an earlier stage already dropped.
			norms[i], mult[i] = 0, 0
		}
	}
	return norms, mult
}

// TestClippingIsProjection: after one Apply with a fixed bound c, every
// surviving norm is ≤ c and the multiplier times the original norm equals
// the post-stage norm; a second Apply is the identity (projections are
// idempotent).
func TestClippingIsProjection(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		norms, mult := randNormsMult(r, 32)
		orig := append([]float64(nil), norms...)
		c, err := NewStage(StageSpec{Kind: StageClipping, Norm: 2.5})
		if err != nil {
			t.Fatal(err)
		}
		clipped := c.Apply(norms, mult)
		wantClipped := 0
		for i := range norms {
			if mult[i] == 0 {
				continue
			}
			if norms[i] > 2.5+1e-12 {
				t.Fatalf("trial %d: norm %v above bound after clipping", trial, norms[i])
			}
			if got := mult[i] * orig[i]; math.Abs(got-norms[i]) > 1e-9*orig[i] {
				t.Fatalf("trial %d: mult·orig = %v but post-stage norm = %v", trial, got, norms[i])
			}
			if orig[i] > 2.5 {
				wantClipped++
			}
		}
		if clipped != wantClipped {
			t.Fatalf("trial %d: Apply reported %d clipped, want %d", trial, clipped, wantClipped)
		}
		// Idempotence: re-applying the same bound changes nothing.
		norms2 := append([]float64(nil), norms...)
		mult2 := append([]float64(nil), mult...)
		if again := c.Apply(norms2, mult2); again != 0 {
			t.Fatalf("trial %d: second Apply clipped %d updates", trial, again)
		}
		for i := range norms {
			if norms2[i] != norms[i] || mult2[i] != mult[i] {
				t.Fatalf("trial %d: second Apply moved entry %d", trial, i)
			}
		}
	}
}

// TestZeroingNeverTouchesSurvivors: zeroing either drops an update
// entirely (mult 0) or leaves its norm and multiplier bit-identical.
func TestZeroingNeverTouchesSurvivors(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 50; trial++ {
		norms, mult := randNormsMult(r, 32)
		origN := append([]float64(nil), norms...)
		origM := append([]float64(nil), mult...)
		z, err := NewStage(StageSpec{Kind: StageZeroing, Norm: 4})
		if err != nil {
			t.Fatal(err)
		}
		zeroed := z.Apply(norms, mult)
		wantZeroed := 0
		for i := range norms {
			if origM[i] != 0 && origN[i] > 4 {
				wantZeroed++
				if mult[i] != 0 || norms[i] != 0 {
					t.Fatalf("trial %d: entry %d above bound not dropped", trial, i)
				}
				continue
			}
			if norms[i] != origN[i] || mult[i] != origM[i] {
				t.Fatalf("trial %d: survivor %d was touched: (%v,%v) -> (%v,%v)",
					trial, i, origN[i], origM[i], norms[i], mult[i])
			}
		}
		if zeroed != wantZeroed {
			t.Fatalf("trial %d: Apply reported %d zeroed, want %d", trial, zeroed, wantZeroed)
		}
	}
}

// TestAdaptiveBoundThresholdThenObserve: the bound applied in round r is
// a function of rounds < r only — Apply uses the pre-observation
// estimate, then folds the round in.
func TestAdaptiveBoundThresholdThenObserve(t *testing.T) {
	st, err := NewStage(StageSpec{Kind: StageClipping})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Bound(); got != ClippingInit {
		t.Fatalf("initial adaptive clip bound = %v, want %v", got, ClippingInit)
	}
	norms := []float64{10, 10, 10, 10}
	mult := []float64{1, 1, 1, 1}
	clipped := st.Apply(norms, mult)
	if clipped != 4 {
		t.Fatalf("clipped %d of 4 updates above the initial bound", clipped)
	}
	for i, m := range mult {
		if math.Abs(m-ClippingInit/10) > 1e-15 {
			t.Fatalf("mult[%d] = %v, want %v (clip at the pre-observation bound)", i, m, ClippingInit/10)
		}
	}
	// All norms were above the estimate, so the estimate must have grown.
	if st.Bound() <= ClippingInit {
		t.Fatalf("estimate did not grow after an all-above round: %v", st.Bound())
	}
}

// TestAdaptiveZeroingBoundShape: the zeroing bound is the inflated
// 2·estimate + 1, not the raw quantile estimate.
func TestAdaptiveZeroingBoundShape(t *testing.T) {
	st, err := NewStage(StageSpec{Kind: StageZeroing})
	if err != nil {
		t.Fatal(err)
	}
	want := ZeroingMultiplier*ZeroingInit + ZeroingIncrement
	if got := st.Bound(); got != want {
		t.Fatalf("initial adaptive zeroing bound = %v, want %v", got, want)
	}
	if got := st.Estimate(); got != ZeroingInit {
		t.Fatalf("initial estimate = %v, want %v", got, ZeroingInit)
	}
}

// TestStageEstimateRoundTrip: Estimate/SetEstimate restore adaptive state
// exactly and are inert on fixed stages.
func TestStageEstimateRoundTrip(t *testing.T) {
	ad, _ := NewStage(StageSpec{Kind: StageClipping})
	ad.Apply([]float64{5, 5}, []float64{1, 1})
	saved := ad.Estimate()
	ad.Apply([]float64{50, 50}, []float64{1, 1})
	if ad.Estimate() == saved {
		t.Fatal("estimate did not move")
	}
	ad.SetEstimate(saved)
	if ad.Estimate() != saved {
		t.Fatalf("SetEstimate: got %v, want %v", ad.Estimate(), saved)
	}

	fixed, _ := NewStage(StageSpec{Kind: StageZeroing, Norm: 7})
	fixed.SetEstimate(123)
	if fixed.Estimate() != 7 || fixed.Bound() != 7 {
		t.Fatalf("fixed stage state moved: estimate %v bound %v", fixed.Estimate(), fixed.Bound())
	}
}

// TestStackedZeroingThenClip: a dropped update is invisible to the
// downstream clip stage — both its multiplier math and its quantile
// observation.
func TestStackedZeroingThenClip(t *testing.T) {
	stages, err := NewStages(StackSpec{Stages: []StageSpec{
		{Kind: StageZeroing, Norm: 100},
		{Kind: StageClipping, Norm: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	norms := []float64{1, 3, 1e6, 2}
	mult := []float64{1, 1, 1, 1}
	if z := stages[0].Apply(norms, mult); z != 1 {
		t.Fatalf("zeroed %d, want 1", z)
	}
	if c := stages[1].Apply(norms, mult); c != 1 {
		t.Fatalf("clipped %d, want 1 (the dropped update must not count)", c)
	}
	want := []float64{1, 2.0 / 3, 0, 1}
	for i := range mult {
		if math.Abs(mult[i]-want[i]) > 1e-12 {
			t.Fatalf("mult = %v, want %v", mult, want)
		}
	}
}

// BenchmarkAggStack measures the per-round server cost the composable
// aggregation stack adds (DESIGN.md §9): the stage pipeline over a
// fleet's worth of update norms, and one FedOpt moment update at a
// model-sized parameter vector (the O(d) work FedAdam/FedYogi add per
// round).
func BenchmarkAggStack(b *testing.B) {
	stack, err := ParseStack("zeroing|clip")
	if err != nil {
		b.Fatal(err)
	}
	stages, err := NewStages(stack)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1024
	r := rng.New(13)
	baseNorms := make([]float64, n)
	for i := range baseNorms {
		baseNorms[i] = math.Exp(r.Normal(0, 1))
	}
	norms := make([]float64, n)
	mult := make([]float64, n)
	b.Run("stages-n1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(norms, baseNorms)
			for j := range mult {
				mult[j] = 1
			}
			for _, st := range stages {
				st.Apply(norms, mult)
			}
		}
	})

	const d = 65536
	wPrev := make([]float64, d)
	w0 := make([]float64, d)
	w := make([]float64, d)
	for i := range wPrev {
		wPrev[i] = r.Normal(0, 1)
		w0[i] = wPrev[i] + 0.01*r.Normal(0, 1)
	}
	for _, kind := range []string{"adam", "yogi"} {
		b.Run(kind+"-step-d65536", func(b *testing.B) {
			opt, err := NewOptimizer(OptSpec{Kind: OptKind(kind), LR: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			opt.Grow(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(w, w0)
				opt.Step(wPrev, w)
			}
		})
	}
}
