package baselines

import (
	"repro/internal/fl"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// STEM (Khanduri et al., 2021) applies stochastic two-sided momentum: each
// local step builds the recursive estimator
//
//	v_{i,k} = g_{i,k} + (1 − α_t)(v_{i,k−1} − ∇f_i(w_{i,k−1}, ξ_{i,k}))
//
// (Algorithm 1 line 6), which requires a second gradient evaluation of the
// current batch at the previous local iterate — the extra client
// computation behind STEM's poor time-to-accuracy in the paper's Table I.
// The server aggregates ∆_i together with the final momentum v_{i,K−1}.
type STEM struct {
	fl.Base
	// AlphaT is the uniform momentum coefficient α_t (paper default 0.2).
	AlphaT float64

	v       [][]float64 // per-client momentum, persists across rounds, lazy
	wPrev   [][]float64 // per-client previous local iterate within a round
	k       int
	lr      float64
	n       int
	d       int       // NumParams, for lazy per-client allocation
	weights []float64 // reusable reported-weight buffer (defense metrics)
}

// NewSTEM returns STEM with momentum coefficient alphaT.
func NewSTEM(alphaT float64) *STEM { return &STEM{AlphaT: alphaT} }

var _ fl.Algorithm = (*STEM)(nil)

// Name implements fl.Algorithm.
func (a *STEM) Name() string { return "STEM" }

// Setup implements fl.Algorithm. Per-client momentum is allocated lazily
// on first participation (BeginLocal), so a large fleet with partial
// participation pays O(d) only for clients that actually train.
func (a *STEM) Setup(env *fl.Env) {
	a.v = make([][]float64, env.NumClients)
	a.wPrev = make([][]float64, env.NumClients)
	a.k = env.Cfg.LocalSteps
	a.lr = env.Cfg.LocalLR
	a.n = env.NumClients
	a.d = env.NumParams
	a.weights = make([]float64, env.NumClients)
}

// BeginLocal seeds the round's previous iterate with w_{i,0}, so the first
// step's correction term vanishes (∇f at the same point cancels g),
// allocating the client's momentum state on first participation.
func (a *STEM) BeginLocal(clientID, _ int, w0 []float64) {
	if a.v[clientID] == nil {
		a.v[clientID] = make([]float64, a.d)
		a.wPrev[clientID] = make([]float64, a.d)
	}
	copy(a.wPrev[clientID], w0)
}

// GradAdjust turns the plain gradient into the STEM estimator v_{i,k},
// paying one extra gradient evaluation on the same batch at w_{i,k−1}.
// On the round's first step the momentum restarts from the fresh gradient:
// the recursion v = g + (1−α)(v_prev − g_prev) is only variance-reducing
// while v_prev estimates the gradient at w_{i,k−1}, which no longer holds
// across a global aggregation step.
func (a *STEM) GradAdjust(ctx *fl.StepCtx) {
	id := ctx.Client
	v := a.v[id]
	if ctx.Step == 0 {
		copy(v, ctx.Grad)
		copy(a.wPrev[id], ctx.W)
		return
	}
	gPrev := ctx.Scratch
	ctx.GradientAt(a.wPrev[id], gPrev)
	for j := range ctx.Grad {
		ctx.Grad[j] += (1 - a.AlphaT) * (v[j] - gPrev[j])
	}
	// The adjusted gradient is v_{i,k}; remember it and the current
	// iterate for the next step.
	copy(v, ctx.Grad)
	copy(a.wPrev[id], ctx.W)
}

// Aggregate implements Algorithm 1 line 10 literally:
// ∆^{t+1} = (1/(K·N·ηl)) Σ (∆_i + v_{i,K−1}), i.e. the server blends the
// accumulated deltas with each client's final momentum estimate. Under
// asynchronous aggregation each term is damped by the update's staleness
// (the momentum estimate decays fastest of all the methods' auxiliary
// state, so stale contributions shrink by 1/√(1+s) and the weights
// renormalize over the damped sum).
func (a *STEM) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	var dampSum float64
	for _, u := range updates {
		dampSum += fl.StalenessDamp(u.Staleness)
	}
	// STEM's effective aggregation weights are the normalized staleness
	// dampings (uniform when all updates are fresh) — STEM ignores
	// WeightByData, so they are reported explicitly rather than through
	// the Eq. (6) helper. Sized to the update count: one client can
	// contribute several updates per step under buffered asynchrony.
	if cap(a.weights) < len(updates) {
		a.weights = make([]float64, len(updates))
	}
	w := a.weights[:len(updates)]
	for i, u := range updates {
		w[i] = fl.StalenessDamp(u.Staleness) / dampSum
	}
	s.ReportWeights(w)
	for i := range updates {
		u := &updates[i]
		scale := s.GlobalLR() * fl.StalenessDamp(u.Staleness) / (float64(a.k) * dampSum * a.lr)
		u.AddScaled(-scale, s.W)
		// Clients that never trained (freeloaders) have no momentum yet;
		// their contribution is the zero vector.
		if v := a.v[u.Client]; v != nil {
			vecmath.AXPY(-scale, v, s.W)
		}
	}
}

// Costs implements fl.Algorithm: the second per-step gradient pass.
func (a *STEM) Costs() simclock.Costs {
	return simclock.Costs{GradEvalsPerStep: 1, AuxPerStep: simclock.CostSTEMExtraGrad}
}
