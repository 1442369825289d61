package baselines

import (
	"repro/internal/fl"
	"repro/internal/vecmath"
)

// FoolsGold (Fung et al., 2020) leaves local training untouched and
// calibrates the aggregation weights instead: each client's weight is its
// gradient's cosine similarity ρ_i to the global gradient (Algorithm 1
// line 10), reducing the influence of outlier updates.
type FoolsGold struct {
	fl.Base
	// Epsilon floors the similarity weights so that a round where every
	// client disagrees with the mean still aggregates something.
	Epsilon float64

	mean []float64
}

// NewFoolsGold returns the FoolsGold baseline. The 0.1 weight floor plays
// the role of the original paper's smooth logit re-weighting: similarities
// never collapse a client's weight to exactly zero, which at this scale
// would let the surviving camp flip the aggregate round to round.
func NewFoolsGold() *FoolsGold { return &FoolsGold{Epsilon: 0.1} }

var _ fl.Algorithm = (*FoolsGold)(nil)

// Name implements fl.Algorithm.
func (a *FoolsGold) Name() string { return "FG" }

// Setup implements fl.Algorithm.
func (a *FoolsGold) Setup(env *fl.Env) {
	a.mean = make([]float64, env.NumParams)
}

// Aggregate weights each delta by max(cos(∆̄, ∆_i), 0)+ε and renormalizes.
// The reference gradient ∆̄ is the unweighted mean of the round's deltas
// (the paper's ∆_{t+1} is not yet available when ρ_i is computed; using
// the round mean matches the 'similarity to the global direction' intent).
// Note: Algorithm 1 line 10 divides the ρ-weighted mean by K·N·ηl; since
// Σρ already normalizes the weighted sum to one delta's scale, dividing by
// N again would shrink the step by 1/N — we treat that as a typo and use
// K·ηl, keeping units identical to FedAvg's rule.
func (a *FoolsGold) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	n := len(updates)
	vecmath.Zero(a.mean)
	for i := range updates {
		updates[i].AddScaled(1/float64(n), a.mean)
	}
	weights := make([]float64, n)
	fl.NormsCosines(updates, a.mean, nil, weights)
	var total float64
	for i, rho := range weights {
		if rho < 0 {
			rho = 0
		}
		weights[i] = rho + a.Epsilon
		total += weights[i]
	}
	scale := s.GlobalLR() / (float64(s.Env.Cfg.LocalSteps) * s.Env.Cfg.LocalLR)
	for i := range updates {
		updates[i].AddScaled(-weights[i]/total*scale, s.W)
	}
	// Report the normalized similarity weights for the defense metrics
	// (honest-vs-corrupt weight mass, suppression detection).
	for i := range weights {
		weights[i] /= total
	}
	s.ReportWeights(weights)
}
