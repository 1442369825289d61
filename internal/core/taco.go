package core

import (
	"math"
	"repro/internal/fl"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// initialAlpha seeds every client's α_i^0, in TACO and both hybrids
// (Algorithm 2 uses 0.1).
const initialAlpha = 0.1

// Config holds TACO's hyper-parameters (Algorithm 2).
type Config struct {
	// Gamma is γ ∈ (0,1], the maximum correction factor in Eq. (8);
	// 0 selects the paper's default γ = 1/K.
	Gamma float64
	// DetectFreeloaders enables the Eq. (10) inspection.
	DetectFreeloaders bool
	// Kappa is the suspicion threshold κ (paper default 0.6).
	Kappa float64
	// MaxStrikes is λ: a client suspected this many times is expelled;
	// 0 selects the paper's default λ = T/5.
	MaxStrikes int
	// DisableTailoredCorrection turns off the Eq. (8) correction
	// (ablation Table VI, "Tailored Corr." column).
	DisableTailoredCorrection bool
	// DisableTailoredAggregation replaces Eq. (9) with uniform averaging
	// (ablation Table VI, "Tailored Agg." column).
	DisableTailoredAggregation bool
	// AlphaSmoothing blends each round's fresh coefficient estimate with
	// the previous value: α ← s·α_old + (1−s)·α_new. The per-round α
	// estimates are noisy at small scale (few local steps), and feeding
	// them raw into Eq. (9) lets the weighted aggregation flip between
	// client camps round to round; smoothing damps the flip while keeping
	// the full dynamic range of the tailoring. 0 keeps the paper's
	// memoryless estimate.
	AlphaSmoothing float64
	// AggFloor floors each client's aggregation weight at this value
	// before normalization. Eq. (9) as written gives weight zero to any
	// client whose delta's cosine with the round mean is non-positive; at
	// small scale (few local steps, high-curvature synthetic data) that
	// excluded camp flips between rounds and the aggregation rings. A
	// small floor keeps every honest client marginally represented while
	// preserving the tailored weighting. 0 keeps the paper's exact rule.
	AggFloor float64
}

func (c Config) withDefaults(localSteps, rounds int) Config {
	if c.Gamma == 0 {
		c.Gamma = 1 / float64(localSteps)
	}
	if c.Kappa == 0 {
		c.Kappa = 0.6
	}
	if c.MaxStrikes == 0 {
		c.MaxStrikes = max(rounds/5, 1)
	}
	return c
}

// TACO is the paper's algorithm: per-client, per-round correction
// coefficients drive both the local-update correction and the aggregation
// weights, with freeloader expulsion as a byproduct.
type TACO struct {
	fl.Base
	cfg     Config
	tracker *AlphaTracker
	// corr is the broadcast global gradient ∆^t of Eq. (8), in gradient
	// units (∆^t ≈ mean local gradient), zero in round 0.
	corr []float64
	// z is the final-output model z_t of Eq. (15).
	z       []float64
	strikes []int
	k       int
	lr      float64
	// weights is the reusable normalized Eq. (9) weight buffer, reported
	// to the server each round for the defense metrics (honest-vs-corrupt
	// weight mass).
	weights []float64
}

// New returns TACO with the given configuration; zero fields select the
// paper's defaults at Setup time.
func New(cfg Config) *TACO { return &TACO{cfg: cfg} }

// Recommended returns the configuration used by this repository's
// experiments: the paper's hyper-parameters (γ = 1/K, κ = 0.6, λ = T/5)
// plus the two reproduction-scale stabilizers, a 0.2 aggregation-weight
// floor and 0.5 coefficient smoothing. At the paper's scale (hundreds of
// local steps over real datasets) the raw Eq. (7) estimates are stable;
// at this repository's reduced scale they are noisy enough that Eq. (9)'s
// zero-weight exclusions ring (see DESIGN.md §5).
func Recommended() Config {
	return Config{AggFloor: 0.2, AlphaSmoothing: 0.5}
}

var _ fl.Algorithm = (*TACO)(nil)

// Name implements fl.Algorithm.
func (a *TACO) Name() string { return "TACO" }

// Setup implements fl.Algorithm.
func (a *TACO) Setup(env *fl.Env) {
	a.cfg = a.cfg.withDefaults(env.Cfg.LocalSteps, env.Cfg.Rounds)
	a.tracker = NewAlphaTracker(env.NumClients, env.NumParams, initialAlpha)
	a.corr = make([]float64, env.NumParams)
	a.z = nil
	a.strikes = make([]int, env.NumClients)
	a.k = env.Cfg.LocalSteps
	a.lr = env.Cfg.LocalLR
	a.weights = make([]float64, env.NumClients)
}

// GradAdjust applies Eq. (8): g ← g + γ(1−α_i^t)·∆^t, registered as a
// fused correction so the engine folds it into the SGD step in a single
// pass over d. The shared vector ∆^t is read-only during the round, so
// concurrent clients only differ in their scalar coefficient.
func (a *TACO) GradAdjust(ctx *fl.StepCtx) {
	if a.cfg.DisableTailoredCorrection {
		return
	}
	coeff := a.cfg.Gamma * (1 - a.tracker.Alpha(ctx.Client))
	if coeff != 0 {
		ctx.FuseCorrection(coeff, a.corr)
	}
}

// Aggregate implements Algorithm 2 lines 9–12: recompute α_i^{t+1}
// (Eq. 7), build the α-weighted global gradient (Eq. 9), advance the
// model, update z (Eq. 15), and expel repeat-offender freeloaders
// (Eq. 10).
func (a *TACO) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	a.tracker.Update(updates, a.cfg.AlphaSmoothing)

	// Eq. (9): ∆^{t+1} = Σ α_i ∆_i / (K·ηl·Σα_i), with weights optionally
	// floored (see Config.AggFloor) and damped by each update's staleness
	// under asynchronous aggregation — a stale delta both carries an
	// outdated correction and misestimates the drift, so its tailored
	// weight shrinks by 1/√(1+s). When every coefficient vanishes
	// (degenerate geometry) fall back to uniform weights.
	weight := func(u fl.Update) float64 {
		return math.Max(a.tracker.Alpha(u.Client), a.cfg.AggFloor) * fl.StalenessDamp(u.Staleness)
	}
	// The normalized per-update weights are materialized once (reusable
	// buffer) so they can both drive the aggregation and be reported to
	// the server for the defense metrics. The buffer tracks the update
	// count, not the client count: under buffered asynchrony one client
	// can contribute several updates to a single server step.
	if cap(a.weights) < len(updates) {
		a.weights = make([]float64, len(updates))
	}
	w := a.weights[:len(updates)]
	var alphaSum float64
	for _, u := range updates {
		alphaSum += weight(u)
	}
	if alphaSum > 1e-12 {
		for i, u := range updates {
			w[i] = weight(u) / alphaSum
		}
	} else {
		for i := range w {
			w[i] = 1 / float64(len(updates))
		}
	}
	if a.cfg.DisableTailoredAggregation {
		// Ablation: uniform FedAvg aggregation, keeping only Eq. (8).
		for i := range w {
			w[i] = 1 / float64(len(updates))
		}
	}
	vecmath.Zero(a.corr)
	inv := 1 / (float64(a.k) * a.lr)
	for i := range updates {
		// Sparse uploads (top-k codec) scatter their k kept coordinates
		// instead of walking all d.
		updates[i].AddScaled(w[i]*inv, a.corr)
	}
	s.ReportWeights(w)
	vecmath.AXPY(-s.GlobalLR(), a.corr, s.W)

	// Eq. (15): z^{t+1} = w^{t+1} + (1−α_{t+1})(w^{t+1} − w^t).
	if a.z == nil {
		a.z = make([]float64, len(s.W))
	}
	for j := range a.z {
		a.z[j] = s.W[j] + (1-a.tracker.Mean())*(s.W[j]-s.WPrev[j])
	}

	// Eq. (10): strike clients whose coefficient crosses κ; expel after λ.
	if a.cfg.DetectFreeloaders {
		for _, u := range updates {
			if a.tracker.Alpha(u.Client) >= a.cfg.Kappa {
				a.strikes[u.Client]++
				if a.strikes[u.Client] >= a.cfg.MaxStrikes {
					s.Expel(u.Client)
				}
			}
		}
	}
}

// FinalModel returns z_t (Eq. 15), the model TACO evaluates and outputs.
func (a *TACO) FinalModel(w []float64) []float64 {
	if a.z == nil {
		return w
	}
	return a.z
}

// MeanAlpha implements fl.Algorithm.
func (a *TACO) MeanAlpha() float64 { return a.tracker.Mean() }

// Alphas returns the current per-client coefficients (a copy).
func (a *TACO) Alphas() []float64 {
	return vecmath.Clone(a.tracker.alphas)
}

// Corr returns the current broadcast correction ∆^t (a copy), the
// aggregated global gradient of Eq. (9). Diagnostic accessor.
func (a *TACO) Corr() []float64 { return vecmath.Clone(a.corr) }

// Strikes returns the per-client suspicion counts (a copy).
func (a *TACO) Strikes() []int {
	out := make([]int, len(a.strikes))
	copy(out, a.strikes)
	return out
}

// Costs implements fl.Algorithm: one AXPY per local step.
func (a *TACO) Costs() simclock.Costs {
	if a.cfg.DisableTailoredCorrection {
		return simclock.Plain()
	}
	return simclock.Costs{GradEvalsPerStep: 1, AuxPerStep: simclock.CostTACOCorrection}
}
