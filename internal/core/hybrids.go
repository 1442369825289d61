package core

import (
	"repro/internal/fl"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// The paper's Fig. 6 shows that prior methods improve when their uniform
// correction coefficients are replaced by TACO's tailored α_i^t. These
// hybrids implement that integration: the original method's correction
// structure with a per-client coefficient (1−α_i^t) in place of the
// uniform ζ (FedProx) or α (Scaffold).

// FedProxTACO is FedProx with a tailored proximal weight ζ_i = ζ(1−α_i^t).
type FedProxTACO struct {
	fl.Base
	// Zeta is the maximum proximal weight (the uniform FedProx ζ).
	Zeta float64

	tracker *AlphaTracker
}

// NewFedProxTACO returns the FedProx(TACO) hybrid of Fig. 6a.
func NewFedProxTACO(zeta float64) *FedProxTACO { return &FedProxTACO{Zeta: zeta} }

var _ fl.Algorithm = (*FedProxTACO)(nil)

// Name implements fl.Algorithm.
func (a *FedProxTACO) Name() string { return "FedProx(TACO)" }

// Setup implements fl.Algorithm.
func (a *FedProxTACO) Setup(env *fl.Env) {
	a.tracker = NewAlphaTracker(env.NumClients, env.NumParams, initialAlpha)
}

// GradAdjust adds the tailored proximal gradient ζ(1−α_i)(w_{i,k} − w^t).
func (a *FedProxTACO) GradAdjust(ctx *fl.StepCtx) {
	coeff := a.Zeta * (1 - a.tracker.Alpha(ctx.Client))
	for j, wj := range ctx.W {
		ctx.Grad[j] += coeff * (wj - ctx.W0[j])
	}
}

// Aggregate keeps FedProx's vanilla aggregation but refreshes the tailored
// coefficients from the round's deltas.
func (a *FedProxTACO) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	a.tracker.Update(updates, 0)
	fl.FedAvgStep(s, updates)
}

// MeanAlpha implements fl.Algorithm.
func (a *FedProxTACO) MeanAlpha() float64 { return a.tracker.Mean() }

// Costs implements fl.Algorithm: same in-loss proximal term as FedProx.
func (a *FedProxTACO) Costs() simclock.Costs {
	return simclock.Costs{GradEvalsPerStep: 1, AuxPerStep: simclock.CostProxTerm}
}

// ScaffoldTACO is Scaffold with a tailored control-variate coefficient
// (1−α_i^t) in place of the uniform α.
type ScaffoldTACO struct {
	fl.Base

	tracker *AlphaTracker
	c       []float64
	ci      [][]float64 // per-client control variates, allocated lazily
	corr    [][]float64
	k       int
	lr      float64
	d       int
}

// NewScaffoldTACO returns the Scaffold(TACO) hybrid of Fig. 6b.
func NewScaffoldTACO() *ScaffoldTACO { return &ScaffoldTACO{} }

var _ fl.Algorithm = (*ScaffoldTACO)(nil)

// Name implements fl.Algorithm.
func (a *ScaffoldTACO) Name() string { return "Scaffold(TACO)" }

// Setup implements fl.Algorithm. Per-client state is allocated lazily on
// first participation, so a large fleet with partial participation pays
// O(d) only for clients that actually train.
func (a *ScaffoldTACO) Setup(env *fl.Env) {
	a.tracker = NewAlphaTracker(env.NumClients, env.NumParams, initialAlpha)
	a.c = make([]float64, env.NumParams)
	a.ci = make([][]float64, env.NumClients)
	a.corr = make([][]float64, env.NumClients)
	a.k = env.Cfg.LocalSteps
	a.lr = env.Cfg.LocalLR
	a.d = env.NumParams
}

// BeginLocal freezes the tailored correction (1−α_i)(c − c_i), allocating
// the client's state on first participation.
func (a *ScaffoldTACO) BeginLocal(clientID, _ int, _ []float64) {
	if a.ci[clientID] == nil {
		a.ci[clientID] = make([]float64, a.d)
		a.corr[clientID] = make([]float64, a.d)
	}
	coeff := 1 - a.tracker.Alpha(clientID)
	corr := a.corr[clientID]
	ci := a.ci[clientID]
	for j := range corr {
		corr[j] = coeff * (a.c[j] - ci[j])
	}
}

// GradAdjust registers the frozen correction for the fused step.
func (a *ScaffoldTACO) GradAdjust(ctx *fl.StepCtx) {
	ctx.FuseCorrection(1, a.corr[ctx.Client])
}

// EndLocal refreshes c_i exactly as Scaffold does.
func (a *ScaffoldTACO) EndLocal(clientID, _ int, delta []float64) {
	ci := a.ci[clientID]
	inv := 1 / (float64(a.k) * a.lr)
	for j := range ci {
		ci[j] = ci[j] - a.c[j] + delta[j]*inv
	}
}

// Aggregate applies the FedAvg step, refreshes c, and recomputes the
// tailored coefficients.
func (a *ScaffoldTACO) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	a.tracker.Update(updates, 0)
	fl.FedAvgStep(s, updates)
	vecmath.Zero(a.c)
	for _, u := range updates {
		// Clients that never trained (freeloaders) have no control
		// variate yet; their contribution is the zero vector.
		if ci := a.ci[u.Client]; ci != nil {
			vecmath.AXPY(1/float64(len(updates)), ci, a.c)
		}
	}
}

// MeanAlpha implements fl.Algorithm.
func (a *ScaffoldTACO) MeanAlpha() float64 { return a.tracker.Mean() }

// Costs implements fl.Algorithm: Scaffold's per-step control-variate add.
func (a *ScaffoldTACO) Costs() simclock.Costs {
	return simclock.Costs{GradEvalsPerStep: 1, AuxPerStep: simclock.CostControlVariate}
}
