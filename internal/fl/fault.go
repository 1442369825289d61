package fl

import (
	"repro/internal/fault"
	"repro/internal/rng"
)

// Fault injection (DESIGN.md §8). A faultPlan compiles the config's
// declarative fault.Specs, each of which applies to every client, into
// per-dispatch draws. Every outcome is resolved in the scheduler goroutine
// from a dedicated per-client fault stream — derived after all honest,
// adversary, and compression streams — so fault runs are bit-reproducible
// at any parallelism and a zero-fault config consumes nothing. All plan
// state is allocated at setup; resolving a dispatch performs only stream
// draws, preserving the 0-alloc steady state with faults enabled.

// maxRollbacks bounds divergence recoveries per run: past it the run
// halts with a recorded HaltReason instead of looping on a configuration
// that keeps blowing up.
const maxRollbacks = 3

// The retry chain's timing (DESIGN.md §8): a failed dispatch is retried
// faultRetries times on top of its first attempt; an attempt times out
// after faultTimeoutFactor × its fault-free wait and compute; and retry a
// (0-based) waits faultBackoffShare × the nominal round × 2^a, jittered.
const (
	faultRetries       = 2
	faultTimeoutFactor = 3
	faultBackoffShare  = 0.25
)

// slowFault is one compiled latency-spike fault: with probability p the
// dispatch's compute time is multiplied by factor.
type slowFault struct {
	p      float64
	factor float64
}

// drawProb consumes one draw per probability and reports whether any
// fired.
func drawProb(r *rng.RNG, ps []float64) bool {
	fired := false
	for _, p := range ps {
		if r.Float64() < p {
			fired = true
		}
	}
	return fired
}

// drawSlow consumes one draw per spec and returns the product of the
// firing specs' latency factors (1 when none fired).
func drawSlow(r *rng.RNG, specs []slowFault) float64 {
	f := 1.0
	for _, g := range specs {
		if r.Float64() < g.p {
			f *= g.factor
		}
	}
	return f
}

// faultPlan is the run's compiled fault model: the probabilities of each
// dispatch fault kind in spec order, shared by every client, and one
// fault stream per client.
type faultPlan struct {
	crash, drop, dup []float64
	slow             []slowFault
	// streams holds each client's fault stream, indexed by client id;
	// nil when no dispatch fault is declared (a pure servercrash config).
	streams []rng.RNG
	// crashRound is the round at whose start the simulated server crash
	// fires; -1 when the config declares none.
	crashRound int
	backoffSec float64
}

// newFaultPlan compiles cfg.Faults for n clients, deriving the fault
// streams from root last of all (after init, samplers, participation,
// adversary, and compression streams) in client-id order, in one slab.
// Returns nil for a zero-fault config, which therefore derives nothing.
func newFaultPlan(cfg *Config, n int, baseRound float64, root *rng.RNG) *faultPlan {
	if len(cfg.Faults) == 0 {
		return nil
	}
	p := &faultPlan{crashRound: -1, backoffSec: faultBackoffShare * baseRound}
	for _, spec := range cfg.Faults {
		switch spec.Kind {
		case fault.KindServerCrash:
			p.crashRound = spec.Round
		case fault.KindCrash:
			p.crash = append(p.crash, spec.Frac)
		case fault.KindDrop:
			p.drop = append(p.drop, spec.Frac)
		case fault.KindDup:
			p.dup = append(p.dup, spec.Frac)
		case fault.KindSlow:
			p.slow = append(p.slow, slowFault{spec.Frac, spec.Param})
		}
	}
	if len(p.crash)+len(p.drop)+len(p.dup)+len(p.slow) > 0 {
		p.streams = root.DeriveN("fault", n)
	}
	return p
}

// dispatches reports whether the plan declares a dispatch fault; false
// for a nil plan.
func (p *faultPlan) dispatches() bool { return p != nil && p.streams != nil }

// backoff returns the deterministic jittered exponential delay before
// retry attempt a (0-based): base · 2^a · (0.5 + u) with u drawn from
// client id's fault stream.
func (p *faultPlan) backoff(a, id int) float64 {
	return p.backoffSec * float64(uint64(1)<<a) * (0.5 + p.streams[id].Float64())
}

// attempt draws one dispatch attempt of client id that starts at modeled
// time start, from the client's fault stream: its crash, drop and slow
// faults in that order, one draw per spec. The attempt fails when a crash
// or drop fired, or when a latency spike pushed its completion past its
// timeout budget, faultTimeoutFactor × its fault-free wait and compute.
// Only a delivered attempt draws its dup faults. end is from plus the
// attempt's time: its completion, or the budget after which the server
// gives up on it.
func (s *scheduler) attempt(id int, start, from float64) (end float64, delivered, dup bool) {
	r := &s.plan.streams[id]
	wait := s.env.Devices[id].Availability.NextAvailable(start) - start
	base := s.finishDur(id)
	crash := drawProb(r, s.plan.crash)
	drop := drawProb(r, s.plan.drop)
	slowF := drawSlow(r, s.plan.slow)
	budget := faultTimeoutFactor * (wait + base)
	if dur := base * slowF; !crash && !drop && wait+dur <= budget {
		return from + wait + dur, true, drawProb(r, s.plan.dup)
	}
	return from + budget, false, false
}

// dispatchOutcome is one fully resolved sync/deadline dispatch: whether
// an update was delivered (possibly after retries), whether the uplink
// duplicated it, how many retries were spent, and the modeled completion
// (or abandonment) time relative to the round start.
type dispatchOutcome struct {
	delivered bool
	dup       bool
	retries   int
	rel       float64
}

// resolveDispatch plays out client id's dispatch at modeled time at
// under the fault plan; without a dispatch fault it delivers at its
// fault-free finish time. Attempts are drawn until one delivers or the
// retries run out; a failed attempt costs its full budget plus an
// exponential backoff. The retried client retransmits the update computed
// at dispatch — retries are modeled in time only, never in extra local
// training.
func (s *scheduler) resolveDispatch(id int, at float64) dispatchOutcome {
	if !s.plan.dispatches() {
		return dispatchOutcome{delivered: true, rel: s.finishRel(id, at)}
	}
	var elapsed float64
	for a := 0; ; a++ {
		end, delivered, dup := s.attempt(id, at+elapsed, elapsed)
		if delivered {
			return dispatchOutcome{delivered: true, dup: dup, retries: a, rel: end}
		}
		elapsed = end
		if a == faultRetries {
			return dispatchOutcome{retries: a, rel: elapsed}
		}
		elapsed += s.plan.backoff(a, id)
	}
}

// asyncOutcome is one resolved async dispatch attempt. Unlike the
// sync/deadline path, async retries re-dispatch — and recompute against
// the then-current model — so only a single attempt is drawn here;
// attempt is its 0-based position in the client's retry chain. failed
// marks a crashed, dropped or timed-out attempt, whose finish is the
// server's timeout expiry and which trains nothing (dispatch); dup
// marks a delivery the uplink duplicated.
type asyncOutcome struct {
	failed  bool
	dup     bool
	finish  float64
	attempt int
}

// resolveAsyncDispatch draws one dispatch attempt for client id at
// modeled time at; without a dispatch fault it finishes at its fault-free
// time. A failed attempt's finish is the moment the server's timeout
// budget expires and it notices the loss.
func (s *scheduler) resolveAsyncDispatch(id int, at float64) asyncOutcome {
	if !s.plan.dispatches() {
		return asyncOutcome{finish: s.env.Devices[id].Availability.NextAvailable(at) + s.finishDur(id)}
	}
	end, delivered, dup := s.attempt(id, at, at)
	return asyncOutcome{failed: !delivered, dup: dup, finish: end, attempt: s.attempts[id]}
}

// degraded reports whether a sync/deadline round that delivered
// `delivered` of `dispatched` updates commits below quorum. A round that
// lost every update is always degraded (the model did not move).
func (s *scheduler) degraded(delivered, dispatched int) bool {
	if delivered == 0 {
		return true
	}
	return s.cfg.Quorum > 0 && float64(delivered) < s.cfg.Quorum*float64(dispatched)
}
