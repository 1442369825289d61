package fl

import (
	"fmt"
	"io"

	"repro/internal/aggstack"
	"repro/internal/ckpt"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// stackedAlg composes the robust pre-aggregation pipeline and the FedOpt
// server optimizer (Config.AggStack / Config.ServerOpt, DESIGN.md §9)
// around any inner aggregation rule. Per round it
//
//  1. computes every update's L2 norm (the payload-aware Update.Norm, so
//     a sparse round stays O(n·k); updateNorms pairs the dense ones and
//     keeps their scans, which Eq. 7 reads for an update left unscaled),
//  2. runs the stage pipeline over (norms, multipliers) — zeroing drops
//     updates, clipping rescales them in place (both the dense delta and
//     the sparse payload values, keeping the two views consistent),
//  3. hands only the surviving updates to the inner rule,
//  4. re-maps the inner rule's reported weights back to the full update
//     list (dropped updates get weight 0) so HonestWeight/CorruptWeight
//     credit the stack's suppressions, and
//  5. lets the server optimizer rewrite w ← wPrev + lr·dir(w − wPrev).
//
// All scratch (norms, multipliers, survivor list, weight remap buffers,
// optimizer moments) is sized once in Setup, so wrapped steady-state
// rounds still allocate nothing. The wrapper is always a
// StatefulAlgorithm: checkpoints capture the stage quantile estimates,
// the optimizer moments, and the inner algorithm's own state.
type stackedAlg struct {
	inner    Algorithm
	innerSA  StatefulAlgorithm // nil when the inner rule is stateless
	stages   []aggstack.Stage
	opt      *aggstack.Optimizer
	name     string
	weighted bool

	// Per-round scratch, sized in Setup.
	norms, mult []float64
	keptIdx     []int
	kept        []Update
	keptW       []float64
	fullW       []float64

	// lastClipNorm is the last Aggregate's clip bound (0 without a clip
	// stage), read by the scheduler into the round record; mult keeps that
	// Aggregate's multipliers, which fate reads.
	lastClipNorm float64
}

// wrapStack composes alg with the config's aggregation stack and server
// optimizer, returning alg unchanged when both are zero-valued — the
// wrap itself must never perturb an unstacked run.
func wrapStack(alg Algorithm, cfg *Config) (Algorithm, error) {
	if cfg.AggStack.Empty() && cfg.ServerOpt.None() {
		return alg, nil
	}
	stages, err := aggstack.NewStages(cfg.AggStack)
	if err != nil {
		return nil, fmt.Errorf("fl: %w", err)
	}
	opt, err := aggstack.NewOptimizer(cfg.ServerOpt)
	if err != nil {
		return nil, fmt.Errorf("fl: %w", err)
	}
	name := alg.Name()
	if !cfg.AggStack.Empty() {
		name += "+" + cfg.AggStack.String()
	}
	if !cfg.ServerOpt.None() {
		name += "+" + cfg.ServerOpt.String()
	}
	sa, _ := alg.(StatefulAlgorithm)
	return &stackedAlg{
		inner:    alg,
		innerSA:  sa,
		stages:   stages,
		opt:      opt,
		name:     name,
		weighted: cfg.WeightByData,
	}, nil
}

// Name implements Algorithm: the inner rule's name decorated with the
// stack and optimizer specs (e.g. "FedAvg+zeroing|clip+adam").
func (a *stackedAlg) Name() string { return a.name }

// Setup implements Algorithm, sizing every per-round scratch buffer so
// Aggregate never allocates.
func (a *stackedAlg) Setup(env *Env) {
	a.inner.Setup(env)
	n := env.NumClients
	a.norms = make([]float64, n)
	a.mult = make([]float64, n)
	a.keptIdx = make([]int, 0, n)
	a.kept = make([]Update, 0, n)
	a.keptW = make([]float64, n)
	a.fullW = make([]float64, n)
	if a.opt != nil {
		a.opt.Grow(env.NumParams)
	}
}

// LocalInit implements Algorithm by delegation.
func (a *stackedAlg) LocalInit(client, round int, w []float64, out []float64) {
	a.inner.LocalInit(client, round, w, out)
}

// BeginLocal implements Algorithm by delegation.
func (a *stackedAlg) BeginLocal(client, round int, w0 []float64) {
	a.inner.BeginLocal(client, round, w0)
}

// GradAdjust implements Algorithm by delegation.
func (a *stackedAlg) GradAdjust(ctx *StepCtx) { a.inner.GradAdjust(ctx) }

// EndLocal implements Algorithm by delegation.
func (a *stackedAlg) EndLocal(client, round int, delta []float64) {
	a.inner.EndLocal(client, round, delta)
}

// Costs implements Algorithm by delegation.
func (a *stackedAlg) Costs() simclock.Costs { return a.inner.Costs() }

// FinalModel implements Algorithm by delegation.
func (a *stackedAlg) FinalModel(w []float64) []float64 { return a.inner.FinalModel(w) }

// MeanAlpha implements Algorithm by delegation.
func (a *stackedAlg) MeanAlpha() float64 { return a.inner.MeanAlpha() }

// Aggregate implements Algorithm: stages → inner rule → weight re-map →
// server optimizer.
func (a *stackedAlg) Aggregate(s *ServerCtx, updates []Update) {
	a.lastClipNorm = 0
	kept := updates
	if len(a.stages) > 0 {
		kept = a.applyStages(updates)
	}
	if len(kept) > 0 {
		a.inner.Aggregate(s, kept)
	}
	if len(a.stages) > 0 {
		a.reportFull(s, updates, kept)
	}
	if a.opt != nil && len(kept) > 0 {
		// A round that lost every update to zeroing moves nothing: the
		// optimizer consumes aggregated pseudo-gradients, not silence.
		a.opt.Step(s.WPrev, s.W)
	}
}

// applyStages runs the stage pipeline over the round's update norms and
// applies the resulting multipliers: dropped updates are compacted out of
// the survivor list (the inner rule never sees them), rescaled updates
// are scaled in place.
func (a *stackedAlg) applyStages(updates []Update) []Update {
	n := len(updates)
	norms := updateNorms(updates, a.norms[:n])
	mult := a.mult[:n]
	for i := range mult {
		mult[i] = 1
	}
	for _, st := range a.stages {
		bound := st.Bound()
		st.Apply(norms, mult)
		if st.Kind() == aggstack.StageClipping {
			a.lastClipNorm = bound
		}
	}
	a.kept = a.kept[:0]
	a.keptIdx = a.keptIdx[:0]
	for i := range updates {
		m := mult[i]
		if m == 0 {
			continue
		}
		if m != 1 {
			scaleUpdate(&updates[i], m)
			updates[i].scanned = false
		}
		a.kept = append(a.kept, updates[i])
		a.keptIdx = append(a.keptIdx, i)
	}
	return a.kept
}

// updateNorms writes every update's Norm into norms and returns it. Dense
// updates go two at a time, their square-sum chains interleaved in one
// loop (vecmath.ScanPair), and keep their scan for Eq. 7 (Update.scan).
func updateNorms(updates []Update, norms []float64) []float64 {
	forDensePairs(updates, func(i int) {
		u := &updates[i]
		if u.sparse() {
			norms[i] = u.Norm()
			return
		}
		u.scan, u.scanned = vecmath.ScanOf(u.Delta), true
		norms[i] = u.scan.Norm()
	}, func(i, j int) {
		ui, uj := &updates[i], &updates[j]
		ui.scan, uj.scan = vecmath.ScanPair(ui.Delta, uj.Delta)
		ui.scanned, uj.scanned = true, true
		norms[i], norms[j] = ui.scan.Norm(), uj.scan.Norm()
	})
	return norms
}

// scaleUpdate rescales an update in place, keeping the dense delta and
// any encoded payload view consistent. Sparse payloads scale in O(k):
// the dense view's dropped coordinates are exact zeros, which rescale to
// exact zeros for free.
func scaleUpdate(u *Update, m float64) {
	if p := u.Payload; p != nil && p.Sparse() {
		for j, idx := range p.Idx {
			p.Val[j] *= m
			u.Delta[idx] *= m
		}
		return
	}
	vecmath.Scale(m, u.Delta)
}

// reportFull re-maps the round's reported aggregation weights from the
// survivor list back to the full update list, giving dropped updates
// weight 0 — so the engine's honest-vs-corrupt weight-mass metrics see
// the stack's suppressions instead of being skipped on a length mismatch
// (scheduler.recordWeightMass). When the inner rule reported nothing
// (every rule shipped here reports through ServerCtx.AggregationWeights,
// but the hook set does not force it) the stack synthesizes the Eq. (6)
// weights over the survivors, which is what a report-free rule aggregates
// with.
func (a *stackedAlg) reportFull(s *ServerCtx, updates, kept []Update) {
	kw := a.keptW[:len(kept)]
	switch {
	case len(kept) == 0:
	case len(s.reported) == len(kept):
		copy(kw, s.reported)
	default:
		aggregationWeightsInto(kw, kept, a.weighted)
	}
	full := a.fullW[:len(updates)]
	vecmath.Zero(full)
	for j, idx := range a.keptIdx {
		full[idx] = kw[j]
	}
	s.ReportWeights(full)
}

// fate returns what the last Aggregate did to updates[i], read off its
// multiplier, so an update two stages touched has one fate.
func (a *stackedAlg) fate(i int) metrics.Outcome {
	switch {
	case len(a.stages) == 0 || a.mult[i] == 1:
		return metrics.Aggregated
	case a.mult[i] == 0:
		return metrics.Zeroed
	}
	return metrics.Clipped
}

// walk covers the stage quantile estimates, the optimizer state, and the
// inner algorithm's own state when it has any. The wrapper is stateful
// even over a stateless inner rule — the adaptive bounds and moments must
// survive a checkpoint bit-identically.
func (a *stackedAlg) walk(c *ckpt.Codec) error {
	c.Section("stack")
	c.ExpectLen(len(a.stages), "stage estimates")
	for _, st := range a.stages {
		est := st.Estimate()
		c.F64(&est)
		if c.Loading() && est <= 0 {
			c.Failf("non-positive stage estimate %v", est)
			break
		}
		st.SetEstimate(est)
	}
	if c.Expect(a.opt != nil, "optimizer") {
		step, m, v := a.opt.State()
		c.Int(&step)
		c.F64s(m)
		c.F64s(v)
		if c.Loading() {
			// The moments moved in place; Restore range-checks the step.
			if err := a.opt.Restore(step, m, v); err != nil {
				c.Failf("%w", err)
			}
		}
	}
	if c.Expect(a.innerSA != nil, "inner-state") {
		c.Nested(a.innerSA.SaveState, a.innerSA.LoadState)
	}
	return c.Err()
}

// SaveState implements StatefulAlgorithm.
func (a *stackedAlg) SaveState(w io.Writer) error { return a.walk(ckpt.Save(w)) }

// LoadState implements StatefulAlgorithm.
func (a *stackedAlg) LoadState(r io.Reader) error { return a.walk(ckpt.Load(r)) }
