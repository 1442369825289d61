package adversary

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/vecmath"
)

// Behavior is one compiled corruption primitive. Concrete behaviors
// additionally implement exactly one of the capability interfaces below,
// which determines where the engine hooks them into the client pipeline.
type Behavior interface {
	// Name identifies the behavior in reports and errors.
	Name() string
}

// DataCorruptor rewrites a client's data shard before training (applied
// once at setup; the engine keeps the clean shard and the client samples
// from the corrupted one).
type DataCorruptor interface {
	Behavior
	// CorruptData returns a corrupted view of shard. Implementations must
	// not mutate shard; label-only attacks share the feature array. r is
	// the client's derived corruption stream.
	CorruptData(shard *dataset.Dataset, r *rng.RNG) *dataset.Dataset
}

// DeltaCorruptor mutates a trained client's outgoing delta in place, on
// the slot pool's checkout path. Implementations must not allocate:
// warmed-up rounds with injectors live are pinned at zero allocations.
type DeltaCorruptor interface {
	Behavior
	CorruptDelta(delta []float64, ctx *Ctx)
}

// Fabricator replaces local training entirely, synthesizing the upload
// into delta. Fabricating clients report no training loss and do no
// measurable work.
type Fabricator interface {
	Behavior
	Fabricate(delta []float64, ctx *Ctx)
}

// Ctx is the per-dispatch context handed to update-level behaviors. The
// engine owns one reusable Ctx per corrupt client, so invoking a behavior
// allocates nothing.
type Ctx struct {
	// Client and Round identify the dispatch.
	Client, Round int
	// Global and PrevGlobal are the dispatch-time global models w^t and
	// w^{t−1} (read-only).
	Global, PrevGlobal []float64
	// ReplayScale converts a global parameter step into honest-delta
	// units: K·ηl/ηg, so (w^{t−1}−w^t)·ReplayScale has the magnitude of
	// an honest K-step local delta.
	ReplayScale float64
	// RNG is the client's persistent corruption stream, derived once at
	// setup; stochastic behaviors draw from it so runs stay bit-identical
	// at any parallelism level.
	RNG *rng.RNG
}

// LabelFlip deterministically maps every label y → C−1−y, preserving the
// shard size and label domain (an involution: flipping twice restores the
// original labels).
type LabelFlip struct{}

// Name implements Behavior.
func (LabelFlip) Name() string { return string(KindLabelFlip) }

// CorruptData implements DataCorruptor. The corrupted view shares X and
// Groups with the clean shard; only the labels are rewritten.
func (LabelFlip) CorruptData(shard *dataset.Dataset, _ *rng.RNG) *dataset.Dataset {
	y := make([]int, len(shard.Y))
	for i, v := range shard.Y {
		y[i] = shard.Classes - 1 - v
	}
	return &dataset.Dataset{Name: shard.Name, In: shard.In, Classes: shard.Classes, X: shard.X, Y: y, Groups: shard.Groups}
}

// LabelNoise replaces each label with a uniformly random class with
// probability Rate — the noisy-label client of FedEFC's threat model.
type LabelNoise struct {
	// Rate ∈ [0,1] is the per-sample corruption probability.
	Rate float64
}

// Name implements Behavior.
func (LabelNoise) Name() string { return string(KindLabelNoise) }

// CorruptData implements DataCorruptor.
func (b LabelNoise) CorruptData(shard *dataset.Dataset, r *rng.RNG) *dataset.Dataset {
	y := make([]int, len(shard.Y))
	copy(y, shard.Y)
	for i := range y {
		if r.Float64() < b.Rate {
			y[i] = r.IntN(shard.Classes)
		}
	}
	return &dataset.Dataset{Name: shard.Name, In: shard.In, Classes: shard.Classes, X: shard.X, Y: y, Groups: shard.Groups}
}

// SignFlip negates the outgoing delta: an honest-looking magnitude
// pointing exactly the wrong way. Applying it twice is the identity.
type SignFlip struct{}

// Name implements Behavior.
func (SignFlip) Name() string { return string(KindSignFlip) }

// CorruptDelta implements DeltaCorruptor.
func (SignFlip) CorruptDelta(delta []float64, _ *Ctx) {
	for i := range delta {
		delta[i] = -delta[i]
	}
}

// ScaleAttack multiplies the outgoing delta by Factor — the boosted
// model-replacement attack. Factor 1 is a bit-exact no-op.
type ScaleAttack struct {
	Factor float64
}

// Name implements Behavior.
func (ScaleAttack) Name() string { return string(KindScale) }

// CorruptDelta implements DeltaCorruptor.
func (b ScaleAttack) CorruptDelta(delta []float64, _ *Ctx) {
	if b.Factor == 1 {
		return
	}
	vecmath.Scale(b.Factor, delta)
}

// DeltaNoise perturbs the outgoing delta with zero-mean Gaussian noise,
// scaled to the delta's own magnitude: per-coordinate σ = Sigma·‖Δ‖/√d,
// so Sigma 1 roughly doubles the expected squared norm regardless of the
// model or round.
type DeltaNoise struct {
	Sigma float64
}

// Name implements Behavior.
func (DeltaNoise) Name() string { return string(KindDeltaNoise) }

// CorruptDelta implements DeltaCorruptor.
func (b DeltaNoise) CorruptDelta(delta []float64, ctx *Ctx) {
	if len(delta) == 0 {
		return
	}
	sigma := b.Sigma * vecmath.Norm2(delta) / math.Sqrt(float64(len(delta)))
	if sigma == 0 {
		return
	}
	for i := range delta {
		delta[i] += ctx.RNG.Normal(0, sigma)
	}
}

// Freeloader fabricates a lazy client's upload: it replays the previous
// global update rescaled to look like an honest local delta (Section
// IV-A: freeloaders "only upload previous global gradients ∆t received
// without contributing any new local updates"). In round 0 there is no
// previous gradient, so the upload is zero.
type Freeloader struct{}

// Name implements Behavior.
func (Freeloader) Name() string { return string(KindFreeloader) }

// Fabricate implements Fabricator: Δ = ReplayScale·(w^{t−1} − w^t).
func (Freeloader) Fabricate(delta []float64, ctx *Ctx) {
	if ctx.Round == 0 {
		vecmath.Zero(delta)
		return
	}
	vecmath.SubScale(delta, ctx.ReplayScale, ctx.PrevGlobal, ctx.Global)
}

// Sybil is a colluding camp: every member uploads the identical crafted
// delta — the previous global step negated and amplified by Amplify — so
// the group coherently drags the model backwards along its own
// trajectory. The delta is a pure function of (round, globals), so
// members dispatched at the same server version share it bit-exactly,
// which is what similarity-based defenses (FoolsGold) key on.
type Sybil struct {
	Amplify float64
}

// Name implements Behavior.
func (Sybil) Name() string { return string(KindSybil) }

// Fabricate implements Fabricator: Δ = −Amplify·ReplayScale·(w^{t−1} − w^t).
func (b Sybil) Fabricate(delta []float64, ctx *Ctx) {
	if ctx.Round == 0 {
		vecmath.Zero(delta)
		return
	}
	vecmath.SubScale(delta, -b.Amplify*ctx.ReplayScale, ctx.PrevGlobal, ctx.Global)
}
