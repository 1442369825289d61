package fl

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// advClient is one corrupt client's compiled corruption state, assembled
// from the config's adversary specs at setup. Honest clients carry none
// (client.adv == nil), so the honest path is untouched. All fields are
// written once at setup; dispatch only reads them (plus the reusable ctx
// and the client-owned RNG stream), keeping warmed-up rounds at zero
// allocations with update-level injectors live.
type advClient struct {
	// sampler draws from the client's data-level corrupted shard, the one
	// the last data-level spec made from the clean shard; nil when no
	// data-level spec names the client.
	sampler *dataset.Sampler
	// injectors is the update-level chain, applied to the outgoing delta
	// in spec order after local training.
	injectors []adversary.DeltaCorruptor
	// fab, when set, replaces local training entirely (at most one
	// fabricator per client, enforced at setup).
	fab adversary.Fabricator
	// ctx is the reusable dispatch context for update-level behaviors.
	ctx adversary.Ctx
	// r is the client's persistent corruption stream; deriving it at
	// setup (after every honest stream) leaves honest clients'
	// randomness bit-identical to an adversary-free run.
	r *rng.RNG
}

// corrupt reports whether the client is designated adversarial by any
// spec — the ground truth the weight-mass metrics and detection scores
// are measured against.
func (c *client) corrupt() bool { return c.adv != nil }

// fabricator returns the client's fabricator, or nil.
func (c *client) fabricator() adversary.Fabricator {
	if c.adv == nil {
		return nil
	}
	return c.adv.fab
}

// trainSampler returns the mini-batch sampler the client trains from:
// its corrupted shard's, else the clean one.
func (c *client) trainSampler() *dataset.Sampler {
	if c.adv != nil && c.adv.sampler != nil {
		return c.adv.sampler
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
// trained delta.
func (c *client) injectDelta(cfg *Config, delta []float64, round int, global, prevGlobal []float64) {
	a := c.adv
	if a == nil || len(a.injectors) == 0 {
		return
	}
	ctx := c.fillCtx(cfg, round, global, prevGlobal)
	for _, b := range a.injectors {
		b.CorruptDelta(delta, ctx)
	}
}

// setupAdversaries compiles the config's corruption specs onto the
// clients. It runs after every honest RNG stream has been derived from
// root, so adversarial streams never perturb honest ones; specs are
// processed in declaration order and members in ascending ID order, so
// setup (including which invalid ID an error reports) is deterministic.
// Each data-level spec corrupts the clean shard and derives its sampler,
// and the last one's sampler is the one the client keeps.
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
				c.adv.sampler = dataset.NewSampler(shard, c.adv.r.Derive("datasampler", si))
			case adversary.DeltaCorruptor:
				c.adv.injectors = append(c.adv.injectors, bb)
			case adversary.Fabricator:
				if c.adv.fab != nil {
					return fmt.Errorf("fl: adversary %d (%s): client %d already has a fabricator", si, spec.Kind, id)
				}
				c.adv.fab = bb
			default:
				return fmt.Errorf("fl: adversary %d: kind %q compiles to no behavior", si, spec.Kind)
			}
		}
	}
	return nil
}
