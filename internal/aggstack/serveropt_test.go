package aggstack

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// scalarOpt is the naive per-coordinate reference the vectorized
// optimizers are differentially tested against: one scalar moment pair,
// the update rules transcribed directly from Reddi et al. with no
// buffer reuse, loop fusion, or shared bias-correction factors.
type scalarOpt struct {
	kind OptKind
	lr   float64
	t    int
	m, v float64
}

func (s *scalarOpt) step(wPrev, w float64) float64 {
	g := w - wPrev
	const beta1, beta2, eps = DefaultBeta1, DefaultBeta2, DefaultEps
	s.t++
	switch s.kind {
	case OptFedSGD:
		return wPrev + s.lr*g
	case OptAdagrad:
		s.m = beta1*s.m + (1-beta1)*g
		s.v = s.v + g*g
		mhat := s.m / (1 - math.Pow(beta1, float64(s.t)))
		return wPrev + s.lr*mhat/(math.Sqrt(s.v)+eps)
	case OptAdam:
		s.m = beta1*s.m + (1-beta1)*g
		s.v = beta2*s.v + (1-beta2)*g*g
		mhat := s.m / (1 - math.Pow(beta1, float64(s.t)))
		vhat := s.v / (1 - math.Pow(beta2, float64(s.t)))
		return wPrev + s.lr*mhat/(math.Sqrt(vhat)+eps)
	case OptYogi:
		g2 := g * g
		s.m = beta1*s.m + (1-beta1)*g
		switch {
		case s.v > g2:
			s.v -= (1 - beta2) * g2
		case s.v < g2:
			s.v += (1 - beta2) * g2
		}
		mhat := s.m / (1 - math.Pow(beta1, float64(s.t)))
		vhat := s.v / (1 - math.Pow(beta2, float64(s.t)))
		return wPrev + s.lr*mhat/(math.Sqrt(vhat)+eps)
	}
	return w
}

// TestOptimizerMatchesScalarReference drives each optimizer through
// randomized pseudo-gradient sequences and checks every coordinate
// against the independent scalar reference after every step.
func TestOptimizerMatchesScalarReference(t *testing.T) {
	const d, rounds = 64, 40
	for _, kind := range []OptKind{OptFedSGD, OptAdagrad, OptAdam, OptYogi} {
		for _, lr := range []float64{0, 0.03, 1.7} {
			spec := OptSpec{Kind: kind, LR: lr}
			t.Run(spec.Kind.String()+"/"+spec.String(), func(t *testing.T) {
				opt, err := NewOptimizer(spec)
				if err != nil {
					t.Fatal(err)
				}
				opt.Grow(d)
				refs := make([]scalarOpt, d)
				for i := range refs {
					refs[i] = scalarOpt{kind: kind, lr: opt.LR()}
				}
				r := rng.New(uint64(17 + len(kind)))
				wPrev := make([]float64, d)
				w := make([]float64, d)
				want := make([]float64, d)
				for i := range wPrev {
					wPrev[i] = r.Normal(0, 1)
				}
				for round := 0; round < rounds; round++ {
					for i := range w {
						// Aggregated model = wPrev + pseudo-gradient,
						// heavy-tailed to stress the adaptive denominators.
						g := r.Normal(0, 1)
						if r.Float64() < 0.1 {
							g *= 100
						}
						if r.Float64() < 0.1 {
							g = 0 // sparse coordinates: Yogi's special case
						}
						w[i] = wPrev[i] + g
						want[i] = refs[i].step(wPrev[i], w[i])
					}
					opt.Step(wPrev, w)
					for i := range w {
						diff := math.Abs(w[i] - want[i])
						scale := math.Max(1, math.Abs(want[i]))
						if diff > 1e-12*scale || math.IsNaN(w[i]) {
							t.Fatalf("round %d coord %d: got %v, want %v (diff %g)", round, i, w[i], want[i], diff)
						}
					}
					copy(wPrev, w)
				}
			})
		}
	}
}

// TestFedSGDUnitLRIsIdentity: fedsgd with lr 1 must leave the aggregated
// model bit-identical — the law the stacked golden test builds on.
func TestFedSGDUnitLRIsIdentity(t *testing.T) {
	opt, err := NewOptimizer(OptSpec{Kind: OptFedSGD, LR: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt.Grow(8)
	wPrev := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	w := []float64{1.5, 1.9, 3.1, 4, 5.25, 5.75, 7.5, 8.125}
	orig := append([]float64(nil), w...)
	opt.Step(wPrev, w)
	for i := range w {
		if w[i] != orig[i] {
			t.Fatalf("coord %d moved: %v -> %v", i, orig[i], w[i])
		}
	}
}

// TestOptimizerStateRoundTrip: State/Restore reproduce the exact
// trajectory — step the original and a restored copy in lockstep and
// demand bit-identical output.
func TestOptimizerStateRoundTrip(t *testing.T) {
	const d = 16
	for _, kind := range []OptKind{OptAdagrad, OptAdam, OptYogi} {
		t.Run(kind.String(), func(t *testing.T) {
			opt, err := NewOptimizer(OptSpec{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			opt.Grow(d)
			r := rng.New(29)
			wPrev := make([]float64, d)
			w := make([]float64, d)
			for round := 0; round < 5; round++ {
				for i := range w {
					w[i] = wPrev[i] + r.Normal(0, 1)
				}
				opt.Step(wPrev, w)
				copy(wPrev, w)
			}
			step, m, v := opt.State()
			mCopy := append([]float64(nil), m...)
			vCopy := append([]float64(nil), v...)

			clone, err := NewOptimizer(OptSpec{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			clone.Grow(d)
			if err := clone.Restore(step, mCopy, vCopy); err != nil {
				t.Fatal(err)
			}
			wA := append([]float64(nil), wPrev...)
			wB := append([]float64(nil), wPrev...)
			for i := range wA {
				delta := 0.1 * float64(i+1)
				wA[i] += delta
				wB[i] += delta
			}
			opt.Step(wPrev, wA)
			clone.Step(wPrev, wB)
			for i := range wA {
				if wA[i] != wB[i] {
					t.Fatalf("coord %d diverged after restore: %v vs %v", i, wA[i], wB[i])
				}
			}
		})
	}
}

// TestOptimizerRestoreRejectsMismatch: restoring moments of the wrong
// dimension fails instead of corrupting state.
func TestOptimizerRestoreRejectsMismatch(t *testing.T) {
	opt, _ := NewOptimizer(OptSpec{Kind: OptAdam})
	opt.Grow(4)
	if err := opt.Restore(1, make([]float64, 3), make([]float64, 4)); err == nil {
		t.Fatal("restore accepted mismatched first moment")
	}
	if err := opt.Restore(-1, make([]float64, 4), make([]float64, 4)); err == nil {
		t.Fatal("restore accepted a negative step counter")
	}
}

// TestOptimizerGrowNoRealloc: Grow with the same dimension keeps the
// backing arrays (the 0-alloc steady-state contract).
func TestOptimizerGrowNoRealloc(t *testing.T) {
	opt, _ := NewOptimizer(OptSpec{Kind: OptYogi})
	opt.Grow(32)
	_, m1, _ := opt.State()
	opt.Grow(32)
	_, m2, _ := opt.State()
	if &m1[0] != &m2[0] {
		t.Fatal("Grow reallocated the moment buffer")
	}
}

// TestOptimizerStepAllocFree: after Grow, a Step of every optimizer kind
// allocates nothing (the 0-alloc steady-state contract; fl's
// TestSteadyStateAllocs runs the stack with adam only).
func TestOptimizerStepAllocFree(t *testing.T) {
	const d = 256
	r := rng.New(29)
	wPrev, w := make([]float64, d), make([]float64, d)
	for i := range wPrev {
		wPrev[i] = r.Normal(0, 1)
	}
	for _, kind := range []OptKind{OptFedSGD, OptAdagrad, OptAdam, OptYogi} {
		opt, err := NewOptimizer(OptSpec{Kind: kind, LR: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		opt.Grow(d)
		allocs := testing.AllocsPerRun(20, func() {
			for i := range w {
				w[i] = wPrev[i] + 0.01
			}
			opt.Step(wPrev, w)
		})
		if allocs != 0 {
			t.Errorf("%s Step allocates %v times per call", kind, allocs)
		}
	}
}
