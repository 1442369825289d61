// Package fault declares the benign-failure model of the simulation:
// clients that crash mid-round, uplinks that lose or duplicate payloads,
// tail-latency spikes on modeled time, and a server that dies at a given
// round and must restart from its last checkpoint. Unlike
// internal/adversary — whose clients *lie* — faulty clients are merely
// unlucky: their updates are honest but may never arrive, arrive twice,
// or arrive late.
//
// A Spec is declarative and engine-agnostic, mirroring adversary.Spec:
// the fl scheduler compiles specs into per-dispatch draws from dedicated
// rng streams (derived after every honest, adversary, and compression
// stream, so a zero-fault configuration consumes nothing and stays
// bit-identical to the fault-free golden run).
package fault

import (
	"fmt"
	"math"

	"repro/internal/spec"
)

// Kind names one failure mode.
type Kind string

const (
	// KindCrash is a client crash mid-round: the dispatched update never
	// returns. The server times out the dispatch, reclaims the slot, and
	// returns the delta-ring entry; the retry recomputes.
	KindCrash Kind = "crash"
	// KindDrop is an uplink payload loss: the client finished its local
	// work but the upload vanished. Timing and retry behave exactly like a
	// crash; the distinction is book-keeping (what the fleet operator would
	// blame).
	KindDrop Kind = "drop"
	// KindDup is an uplink duplication: the payload is delivered twice.
	// The server must be idempotent — the duplicate is counted (and its
	// bytes charged) but never aggregated twice.
	KindDup Kind = "dup"
	// KindSlow is a tail-latency spike: the dispatch's modeled compute
	// time is multiplied by the spec's factor. A spike that pushes the
	// dispatch past its timeout budget is retried like a crash.
	KindSlow Kind = "slow"
	// KindServerCrash kills the run when it reaches the start of round r
	// (the spec's Round) and restarts it from the last checkpoint,
	// replaying the lost rounds bit-identically.
	KindServerCrash Kind = "servercrash"
)

// Kinds lists every supported failure mode, client faults first.
func Kinds() []Kind {
	return []Kind{KindCrash, KindDrop, KindDup, KindSlow, KindServerCrash}
}

// KindNames returns the kinds as strings for CLI help text.
func KindNames() []string {
	ks := Kinds()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = string(k)
	}
	return names
}

// Spec declares one fault. A client fault applies to every client for
// the whole run. The zero value is invalid; construct specs directly or
// via ParseFault and check Validate.
type Spec struct {
	Kind Kind
	// Frac is the per-dispatch probability that the fault fires, drawn
	// once per dispatch attempt from the client's dedicated fault
	// stream. Crash and drop require Frac < 1 (a certain
	// failure would livelock the async policy's re-dispatch loop).
	// Unused by KindServerCrash.
	Frac float64
	// Param is kind-specific: for KindSlow it is the multiplicative
	// latency factor (≥ 1, default 4); other client faults ignore it.
	Param float64
	// Round is the 0-based round at whose start KindServerCrash fires.
	// Unused by client faults.
	Round int
}

// Validate reports malformed specs.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindCrash, KindDrop:
		if !(s.Frac > 0 && s.Frac < 1) {
			return fmt.Errorf("fault: %s frac %v must be in (0,1): a certain failure never delivers and livelocks async re-dispatch", s.Kind, s.Frac)
		}
	case KindDup:
		if !(s.Frac > 0 && s.Frac <= 1) {
			return fmt.Errorf("fault: dup frac %v must be in (0,1]", s.Frac)
		}
	case KindSlow:
		if !(s.Frac > 0 && s.Frac <= 1) {
			return fmt.Errorf("fault: slow frac %v must be in (0,1]", s.Frac)
		}
		if !(s.Param >= 1) || math.IsInf(s.Param, 0) {
			return fmt.Errorf("fault: slow factor %v must be a finite value >= 1", s.Param)
		}
	case KindServerCrash:
		if s.Round < 1 {
			return fmt.Errorf("fault: servercrash round %d must be >= 1 (there is nothing to recover before round 1)", s.Round)
		}
		if s.Frac != 0 {
			return fmt.Errorf("fault: servercrash takes only a round, not a fraction")
		}
	default:
		return fmt.Errorf("fault: unknown kind %q (valid: %v)", s.Kind, KindNames())
	}
	return nil
}

// String renders the spec in ParseFault syntax.
func (s Spec) String() string {
	if s.Kind == KindServerCrash {
		return fmt.Sprintf("%s:%d", s.Kind, s.Round)
	}
	out := fmt.Sprintf("%s:%g", s.Kind, s.Frac)
	if s.Kind == KindSlow {
		out += fmt.Sprintf(":%g", s.Param)
	}
	return out
}

// grammar is the -fault kind table: the arguments each kind takes.
var grammar = spec.Grammar{Pkg: "fault", Fields: map[string][]string{
	"crash": {"fraction"}, "drop": {"fraction"}, "dup": {"fraction"},
	"slow": {"fraction", "factor"}, "servercrash": {"round"},
}}

// ParseFault parses the CLI syntax "kind[:frac[:param]]" (DESIGN.md §6's
// spec grammar), mirroring adversary.ParseAttack:
//
//	crash:0.2        each dispatch of every client crashes w.p. 0.2
//	drop             uplink loss at the default 0.25 per dispatch
//	dup:0.1          one dispatch in ten is delivered twice
//	slow:0.3:4       30% of dispatches take 4× their modeled time
//	servercrash:5    the server dies at the start of round 5
func ParseFault(s string) (Spec, error) {
	e := grammar.Entry(s)
	out := Spec{Kind: Kind(e.Kind), Frac: 0.25}
	switch out.Kind {
	case KindServerCrash:
		out.Frac, out.Round = 0, 1
		return spec.Fill(e, &out, &out.Round)
	case KindSlow:
		out.Param = 4
	}
	return spec.Fill(e, &out, &out.Frac, &out.Param)
}

// ParseFaults parses a comma-separated list of ParseFault specs.
func ParseFaults(s string) ([]Spec, error) {
	return spec.List(s, ",", ParseFault)
}
