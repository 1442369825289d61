// Package adversary models client corruption as a first-class, composable
// axis of the federated simulation. A corruption is declared as a Spec
// (which clients, which attack, how strong) and
// compiled into a Behavior — a small strategy object the engine invokes at
// one of three hook points in the client pipeline (DESIGN.md §6):
//
//   - data level (DataCorruptor): the client's shard is rewritten before
//     training — label flipping, label noise (FedEFC's noisy clients);
//   - update level (DeltaCorruptor): the outgoing delta Δ_i is mutated in
//     place on the slot-pool checkout path — sign flipping, scaling,
//     Gaussian perturbation;
//   - whole-update fabrication (Fabricator): local training is skipped
//     entirely and the upload is synthesized — the paper's freeloaders,
//     and sybil groups uploading one shared crafted delta.
//
// Every behavior is a pure function of the client's deterministic state
// (its derived RNG stream, the dispatch-time globals, the round), so runs
// stay bit-identical at any parallelism level, and honest clients' random
// streams are untouched by the presence of adversaries.
package adversary

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/spec"
)

// Kind names one corruption primitive.
type Kind string

const (
	// KindLabelFlip deterministically flips every label y → C−1−y in the
	// client's shard (targeted label poisoning).
	KindLabelFlip Kind = "labelflip"
	// KindLabelNoise replaces each label with a uniformly random class
	// with probability Scale (default 0.5) — FedEFC's noisy-label client.
	KindLabelNoise Kind = "labelnoise"
	// KindSignFlip negates the outgoing delta (model-poisoning sign
	// flip; an honest-looking magnitude pointing the wrong way).
	KindSignFlip Kind = "signflip"
	// KindScale multiplies the outgoing delta by Scale (default 5), the
	// classic boosted model-replacement attack.
	KindScale Kind = "scale"
	// KindDeltaNoise adds zero-mean Gaussian noise with per-coordinate
	// standard deviation Scale·‖Δ‖/√d (default Scale 1) to the delta.
	KindDeltaNoise Kind = "deltanoise"
	// KindFreeloader uploads the replayed previous global step instead of
	// training (Section IV-A's lazy client).
	KindFreeloader Kind = "freeload"
	// KindSybil makes the member clients collude: every member uploads
	// the same crafted delta — the previous global step, negated and
	// amplified by Scale (default 1) — so the camp pushes the model
	// backwards along its own trajectory.
	KindSybil Kind = "sybil"
)

// Kinds lists every corruption primitive in a stable order.
func Kinds() []Kind {
	return []Kind{KindLabelFlip, KindLabelNoise, KindSignFlip, KindScale, KindDeltaNoise, KindFreeloader, KindSybil}
}

// KindNames lists the accepted -attack flag values.
func KindNames() []string {
	kinds := Kinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return names
}

// Spec declares one corruption: the attack kind, the clients it applies
// to, and its magnitude. A corrupt client is corrupt for the whole run.
// Specs compose — a client may appear in several specs, stacking a
// data-level attack with update-level injectors (at most one fabricator
// per client).
type Spec struct {
	// Kind selects the corruption primitive.
	Kind Kind
	// Clients lists the corrupted client IDs explicitly. Mutually
	// exclusive with Frac.
	Clients []int
	// Frac corrupts round(Frac·N) clients — half-up, at least one when
	// positive — spread evenly across the ID range so every
	// data-partition group keeps honest members. Mutually exclusive with
	// Clients.
	Frac float64
	// Scale is the attack magnitude; its meaning is kind-specific (see
	// the Kind constants). 0 selects the kind's default.
	Scale float64
}

// Validate reports malformed specs. Client-count-dependent checks (IDs in
// range) are done by the engine, which knows N.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindLabelFlip, KindLabelNoise, KindSignFlip, KindScale, KindDeltaNoise, KindFreeloader, KindSybil:
	default:
		return fmt.Errorf("adversary: unknown kind %q (valid: %v)", s.Kind, KindNames())
	}
	if len(s.Clients) > 0 && s.Frac != 0 {
		return fmt.Errorf("adversary: %s spec sets both Clients and Frac", s.Kind)
	}
	if s.Frac < 0 || s.Frac > 1 || math.IsNaN(s.Frac) {
		return fmt.Errorf("adversary: %s fraction %v must be in [0,1]", s.Kind, s.Frac)
	}
	if len(s.Clients) == 0 && s.Frac == 0 {
		return fmt.Errorf("adversary: %s spec selects no clients (set Clients or Frac)", s.Kind)
	}
	seen := make(map[int]bool, len(s.Clients))
	for _, id := range s.Clients {
		if id < 0 {
			return fmt.Errorf("adversary: %s client id %d must be non-negative", s.Kind, id)
		}
		if seen[id] {
			return fmt.Errorf("adversary: %s client id %d listed twice", s.Kind, id)
		}
		seen[id] = true
	}
	if math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) || s.Scale < 0 {
		return fmt.Errorf("adversary: %s scale %v must be finite and non-negative", s.Kind, s.Scale)
	}
	if s.Kind == KindLabelNoise && s.Scale > 1 {
		return fmt.Errorf("adversary: labelnoise rate %v must be in [0,1]", s.Scale)
	}
	return nil
}

// Members resolves the corrupted client set for an n-client federation:
// a sorted copy of Clients, or round(Frac·n) IDs (half-up, at least one)
// spread evenly across [0,n). IDs are sorted ascending, so every
// consumer iterates deterministically.
func (s Spec) Members(n int) []int {
	if len(s.Clients) > 0 {
		ids := make([]int, len(s.Clients))
		copy(ids, s.Clients)
		sort.Ints(ids)
		return ids
	}
	if s.Frac <= 0 || n <= 0 {
		return nil
	}
	count := max(int(s.Frac*float64(n)+0.5), 1)
	count = min(count, n)
	ids := make([]int, count)
	for i := range ids {
		ids[i] = i * n / count
	}
	return ids
}

// Freeloaders returns the always-on freeloader spec for the given client
// IDs (Section IV-A's lazy clients), sorted and deduplicated so a caller
// may pass them in any order. Callers put it first in Config.Adversaries,
// so freeloading is settled before any other spec composes on a client.
func Freeloaders(ids []int) Spec {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	uniq := sorted[:0]
	for _, id := range sorted {
		if len(uniq) == 0 || id != uniq[len(uniq)-1] {
			uniq = append(uniq, id)
		}
	}
	return Spec{Kind: KindFreeloader, Clients: uniq}
}

// Behavior compiles the spec into its strategy object with kind defaults
// applied. The returned value implements exactly one of the capability
// interfaces (DataCorruptor, DeltaCorruptor, Fabricator) and is safe to
// share across the spec's member clients.
func (s Spec) Behavior() Behavior {
	scale := func(def float64) float64 {
		if s.Scale != 0 {
			return s.Scale
		}
		return def
	}
	switch s.Kind {
	case KindLabelFlip:
		return LabelFlip{}
	case KindLabelNoise:
		return LabelNoise{Rate: scale(0.5)}
	case KindSignFlip:
		return SignFlip{}
	case KindScale:
		return ScaleAttack{Factor: scale(5)}
	case KindDeltaNoise:
		return DeltaNoise{Sigma: scale(1)}
	case KindFreeloader:
		return Freeloader{}
	case KindSybil:
		return Sybil{Amplify: scale(1)}
	default:
		return nil
	}
}

// grammar is the -attack kind table: the arguments each kind takes.
var grammar = spec.Grammar{Pkg: "adversary", Fields: map[string][]string{
	"labelflip": {"fraction"}, "signflip": {"fraction"}, "freeload": {"fraction"},
	"labelnoise": {"fraction", "scale"}, "scale": {"fraction", "scale"},
	"deltanoise": {"fraction", "scale"}, "sybil": {"fraction", "scale"},
}}

// ParseAttack parses the flsim -attack syntax "kind[:frac[:scale]]"
// (DESIGN.md §6's spec grammar), e.g. "signflip", "scale:0.3",
// "sybil:0.25:2". The returned spec always passes Validate.
func ParseAttack(s string) (Spec, error) {
	e := grammar.Entry(s)
	out := Spec{Kind: Kind(e.Kind), Frac: 0.25}
	return spec.Fill(e, &out, &out.Frac, &out.Scale)
}
