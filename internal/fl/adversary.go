package fl

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// advClient is one corrupt client's compiled corruption state, assembled
// from the config's adversary specs at setup. Honest clients carry none
// (client.adv == nil), so the honest path is untouched. All fields are
// written once at setup; dispatch only reads them (plus the reusable ctx
// and the client-owned RNG stream), keeping warmed-up rounds at zero
// allocations with update-level injectors live.
type advClient struct {
	// alts are the data-level corrupted views of the client's shard, one
	// per data-level spec, each corrupted from the clean shard and gated
	// by its own window. At dispatch the last live alternative wins.
	alts []dataAlt
	// injectors is the update-level chain, applied to the outgoing delta
	// in spec order after local training.
	injectors []deltaInjector
	// fab, when set, replaces local training entirely while fabWin is
	// live (at most one fabricator per client, enforced at setup).
	fab    adversary.Fabricator
	fabWin simclock.Trace
	// ctx is the reusable dispatch context for update-level behaviors.
	ctx adversary.Ctx
	// r is the client's persistent corruption stream; deriving it at
	// setup (after every honest stream) leaves honest clients'
	// randomness bit-identical to an adversary-free run.
	r *rng.RNG
}

type dataAlt struct {
	sampler *dataset.Sampler
	win     simclock.Trace
}

type deltaInjector struct {
	b   adversary.DeltaCorruptor
	win simclock.Trace
}

// corrupt reports whether the client is designated adversarial by any
// spec — the ground truth the weight-mass metrics and detection scores
// are measured against (window-gated attackers count even while dormant).
func (c *client) corrupt() bool { return c.adv != nil }

// fabricatorAt returns the client's fabricator when one is live at
// modeled time now, else nil.
func (c *client) fabricatorAt(now float64) adversary.Fabricator {
	if c.adv == nil || c.adv.fab == nil || !c.adv.fabWin.Available(now) {
		return nil
	}
	return c.adv.fab
}

// samplerAt returns the mini-batch sampler to train from at modeled time
// now: the last data-level corruption whose window is live, else the
// clean sampler.
func (c *client) samplerAt(now float64) *dataset.Sampler {
	if c.adv == nil {
		return c.sampler
	}
	for i := len(c.adv.alts) - 1; i >= 0; i-- {
		if c.adv.alts[i].win.Available(now) {
			return c.adv.alts[i].sampler
		}
	}
	return c.sampler
}

// fillCtx refreshes the client's reusable dispatch context (allocation-
// free; the struct and RNG are owned by advClient).
func (c *client) fillCtx(cfg *Config, round int, global, prevGlobal []float64) *adversary.Ctx {
	a := c.adv
	a.ctx.Client = c.id
	a.ctx.Round = round
	a.ctx.Global = global
	a.ctx.PrevGlobal = prevGlobal
	a.ctx.ReplayScale = float64(cfg.LocalSteps) * cfg.LocalLR / cfg.globalLR()
	a.ctx.RNG = a.r
	return &a.ctx
}

// fabricate synthesizes the client's upload via its fabricator.
// Fabricating clients report no training loss (NaN sentinel; see
// meanLoss).
func (c *client) fabricate(fab adversary.Fabricator, cfg *Config, delta []float64, round int, global, prevGlobal []float64) {
	fab.Fabricate(delta, c.fillCtx(cfg, round, global, prevGlobal))
	c.lastLoss = math.NaN()
}

// injectDelta runs the client's update-level injector chain over the
// trained delta, skipping injectors whose window is closed at now.
func (c *client) injectDelta(cfg *Config, delta []float64, round int, now float64, global, prevGlobal []float64) {
	a := c.adv
	if a == nil || len(a.injectors) == 0 {
		return
	}
	ctx := c.fillCtx(cfg, round, global, prevGlobal)
	for i := range a.injectors {
		if a.injectors[i].win.Available(now) {
			a.injectors[i].b.CorruptDelta(delta, ctx)
		}
	}
}

// setupAdversaries compiles the config's corruption specs onto the
// clients. It runs after every honest RNG stream has been derived from
// root, so adversarial streams never perturb honest ones; specs are
// processed in declaration order and members in ascending ID order, so
// setup (including which invalid ID an error reports) is deterministic.
func setupAdversaries(cfg *Config, clients []client, root *rng.RNG) error {
	for si, spec := range cfg.Adversaries {
		members := spec.Members(len(clients))
		b := spec.Behavior()
		for _, id := range members {
			if id < 0 || id >= len(clients) {
				return fmt.Errorf("fl: adversary %d (%s): client id %d outside [0,%d)", si, spec.Kind, id, len(clients))
			}
			c := &clients[id]
			if c.adv == nil {
				c.adv = &advClient{r: root.Derive("adversary", id)}
			}
			switch bb := b.(type) {
			case adversary.DataCorruptor:
				shard := bb.CorruptData(c.data, c.adv.r.Derive("data", si))
				c.adv.alts = append(c.adv.alts, dataAlt{
					sampler: dataset.NewSampler(shard, c.adv.r.Derive("datasampler", si)),
					win:     spec.Window,
				})
			case adversary.DeltaCorruptor:
				c.adv.injectors = append(c.adv.injectors, deltaInjector{b: bb, win: spec.Window})
			case adversary.Fabricator:
				if c.adv.fab != nil {
					return fmt.Errorf("fl: adversary %d (%s): client %d already has a fabricator", si, spec.Kind, id)
				}
				c.adv.fab = bb
				c.adv.fabWin = spec.Window
			default:
				return fmt.Errorf("fl: adversary %d: kind %q compiles to no behavior", si, spec.Kind)
			}
		}
	}
	return nil
}
