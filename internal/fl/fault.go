package fl

import (
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// Fault injection (DESIGN.md §8). A faultPlan compiles the config's
// declarative fault.Specs into per-client dispatch draws. Every outcome
// is resolved in the scheduler goroutine from a dedicated per-client
// fault stream — derived after all honest, adversary, and compression
// streams — so fault runs are bit-reproducible at any parallelism and a
// zero-fault config consumes nothing. All plan state is allocated at
// setup; resolving a dispatch performs only stream draws, preserving the
// 0-alloc steady state with faults enabled.

// maxRollbacks bounds divergence recoveries per run: past it the run
// halts with a recorded HaltReason instead of looping on a configuration
// that keeps blowing up.
const maxRollbacks = 3

// gatedProb is one compiled probabilistic fault: it fires with
// probability p per dispatch attempt, gated by a modeled-time window.
// The draw is always consumed so window gating never shifts the stream.
type gatedProb struct {
	p   float64
	win simclock.Trace
}

// gatedSlow is one compiled latency-spike fault: with probability p the
// dispatch's compute time is multiplied by factor.
type gatedSlow struct {
	p      float64
	factor float64
	win    simclock.Trace
}

// clientFaults is one client's compiled fault state and its dedicated
// draw stream. Its spec lists are windows into the plan's per-kind
// slabs; a client no dispatch fault applies to has none and an unseeded
// stream.
type clientFaults struct {
	crash []gatedProb
	drop  []gatedProb
	dup   []gatedProb
	slow  []gatedSlow
	r     rng.RNG
}

// subject reports whether any dispatch fault applies to the client.
func (cf *clientFaults) subject() bool {
	return len(cf.crash)+len(cf.drop)+len(cf.dup)+len(cf.slow) > 0
}

// drawProb consumes one draw per spec and reports whether any fired
// inside its window at modeled time at.
func drawProb(r *rng.RNG, specs []gatedProb, at float64) bool {
	fired := false
	for _, g := range specs {
		if r.Float64() < g.p && g.win.Available(at) {
			fired = true
		}
	}
	return fired
}

// drawSlow consumes one draw per spec and returns the product of the
// firing specs' latency factors (1 when none fired).
func drawSlow(r *rng.RNG, specs []gatedSlow, at float64) float64 {
	f := 1.0
	for _, g := range specs {
		if r.Float64() < g.p && g.win.Available(at) {
			f *= g.factor
		}
	}
	return f
}

// faultPlan is the run's compiled fault model.
type faultPlan struct {
	// perClient holds each client's compiled fault state, indexed by
	// client id; clients not subject to any fault (their dispatches draw
	// nothing and behave exactly as in a fault-free run) hold a zero
	// entry.
	perClient []clientFaults
	// anyDispatch flags at least one per-dispatch fault (everything but
	// a pure servercrash config).
	anyDispatch bool
	// crashRound is the round at whose start the simulated server crash
	// fires; -1 when the config declares none.
	crashRound    int
	retries       int
	timeoutFactor float64
	backoffSec    float64
}

// newFaultPlan compiles cfg.Faults for n clients, deriving the fault
// streams from root last of all (after init, samplers, participation,
// adversary, and compression streams) in client-id order. Returns nil
// for a zero-fault config, which therefore derives nothing. It makes a
// fixed number of allocations per spec, none per client: client by
// client, each spec that names the client (subject lists are sorted, so
// one cursor per spec finds them) appends its entry, in spec order, to
// the slab of its kind, and the client's lists are what it appended.
func newFaultPlan(cfg *Config, n int, baseRound float64, root *rng.RNG) *faultPlan {
	if len(cfg.Faults) == 0 {
		return nil
	}
	p := &faultPlan{
		perClient:     make([]clientFaults, n),
		crashRound:    -1,
		retries:       cfg.faultRetries(),
		timeoutFactor: cfg.faultTimeoutFactor(),
		backoffSec:    cfg.faultBackoff(baseRound),
	}
	subjects := make([][]int, len(cfg.Faults))
	entries := make(map[fault.Kind]int, 4) // slab sizes
	for si, spec := range cfg.Faults {
		if spec.Kind == fault.KindServerCrash {
			p.crashRound = spec.Round
			continue
		}
		p.anyDispatch = true
		subjects[si] = spec.Subjects(n)
		entries[spec.Kind] += len(subjects[si])
	}
	crash := make([]gatedProb, 0, entries[fault.KindCrash])
	drop := make([]gatedProb, 0, entries[fault.KindDrop])
	dup := make([]gatedProb, 0, entries[fault.KindDup])
	slow := make([]gatedSlow, 0, entries[fault.KindSlow])
	next := make([]int, len(cfg.Faults)) // each spec's cursor into its subjects
	for id := range p.perClient {
		c0, d0, u0, s0 := len(crash), len(drop), len(dup), len(slow)
		for si, spec := range cfg.Faults {
			sub := subjects[si]
			if next[si] == len(sub) || sub[next[si]] != id {
				continue
			}
			next[si]++
			switch spec.Kind {
			case fault.KindCrash:
				crash = append(crash, gatedProb{spec.Frac, spec.Window})
			case fault.KindDrop:
				drop = append(drop, gatedProb{spec.Frac, spec.Window})
			case fault.KindDup:
				dup = append(dup, gatedProb{spec.Frac, spec.Window})
			case fault.KindSlow:
				slow = append(slow, gatedSlow{spec.Frac, spec.Param, spec.Window})
			}
		}
		cf := &p.perClient[id]
		cf.crash, cf.drop, cf.dup, cf.slow = crash[c0:], drop[d0:], dup[u0:], slow[s0:]
		if cf.subject() {
			root.DeriveInto(&cf.r, "fault", id)
		}
	}
	return p
}

// backoff returns the deterministic jittered exponential delay before
// retry attempt a (0-based): base · 2^a · (0.5 + u) with u drawn from
// the client's fault stream.
func (p *faultPlan) backoff(a int, r *rng.RNG) float64 {
	return p.backoffSec * float64(uint64(1)<<min(a, 30)) * (0.5 + r.Float64())
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

// faultsOf returns client id's compiled fault state: nil when no
// dispatch fault applies to it, or the run declares no plan at all.
func (s *scheduler) faultsOf(id int) *clientFaults {
	if s.plan == nil {
		return nil
	}
	if cf := &s.plan.perClient[id]; cf.subject() {
		return cf
	}
	return nil
}

// resolveDispatch plays out client id's dispatch at modeled time at
// under the fault plan; a client no fault applies to delivers at its
// fault-free finish time. Each attempt draws, in fixed order, its crash,
// drop, and slow faults (one draw per compiled spec); an attempt fails
// when a crash or drop fired, or when a latency spike pushed its
// completion past the timeout budget (timeoutFactor × the attempt's
// fault-free completion time). Failed attempts cost the full budget plus
// an exponential backoff; the dup draw happens only on delivery. The
// retried client retransmits the update computed at dispatch — retries
// are modeled in time only, never in extra local training.
func (s *scheduler) resolveDispatch(id int, at float64) dispatchOutcome {
	cf := s.faultsOf(id)
	if cf == nil {
		return dispatchOutcome{delivered: true, rel: s.finishRel(id, at)}
	}
	var elapsed float64
	for a := 0; ; a++ {
		start := at + elapsed
		wait := s.env.Devices[id].Availability.NextAvailable(start) - start
		base := s.finishDur(id)
		crash := drawProb(&cf.r, cf.crash, start)
		drop := drawProb(&cf.r, cf.drop, start)
		slowF := drawSlow(&cf.r, cf.slow, start)
		budget := s.plan.timeoutFactor * (wait + base)
		dur := base * slowF
		if !crash && !drop && wait+dur <= budget {
			return dispatchOutcome{
				delivered: true,
				dup:       drawProb(&cf.r, cf.dup, start),
				retries:   a,
				rel:       elapsed + wait + dur,
			}
		}
		elapsed += budget
		if a == s.plan.retries {
			return dispatchOutcome{retries: a, rel: elapsed}
		}
		elapsed += s.plan.backoff(a, &cf.r)
	}
}

// asyncOutcome is one resolved async dispatch attempt. Unlike the
// sync/deadline path, async retries re-dispatch — and recompute against
// the then-current model — so only a single attempt is drawn here;
// attempt is its 0-based position in the client's retry chain.
type asyncOutcome struct {
	failed  bool
	dup     bool
	finish  float64
	attempt int
}

// resolveAsyncDispatch draws one dispatch attempt for client id at
// modeled time at; a client no fault applies to finishes at its
// fault-free time. A failed attempt's finish is the moment the server's
// timeout budget expires and it notices the loss.
func (s *scheduler) resolveAsyncDispatch(id int, at float64) asyncOutcome {
	cf := s.faultsOf(id)
	if cf == nil {
		return asyncOutcome{finish: s.env.Devices[id].Availability.NextAvailable(at) + s.finishDur(id)}
	}
	attempt := s.attempts[id]
	wait := s.env.Devices[id].Availability.NextAvailable(at) - at
	base := s.finishDur(id)
	crash := drawProb(&cf.r, cf.crash, at)
	drop := drawProb(&cf.r, cf.drop, at)
	slowF := drawSlow(&cf.r, cf.slow, at)
	budget := s.plan.timeoutFactor * (wait + base)
	dur := base * slowF
	if crash || drop || wait+dur > budget {
		return asyncOutcome{failed: true, finish: at + budget, attempt: attempt}
	}
	return asyncOutcome{dup: drawProb(&cf.r, cf.dup, at), finish: at + wait + dur, attempt: attempt}
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

// payloadBytes is one update's cost on the wire (used to charge
// duplicate deliveries).
func (s *scheduler) payloadBytes(u *Update) int64 {
	if u.Payload != nil {
		return int64(u.Payload.Bytes())
	}
	return 8 * int64(len(s.params))
}

// dupBytes totals the wire cost of the round's duplicate deliveries:
// dup[j] marks updates[j] as delivered twice.
func (s *scheduler) dupBytes(updates []Update, dup []bool) int64 {
	var extra int64
	for i := range updates {
		if dup[i] {
			extra += s.payloadBytes(&updates[i])
		}
	}
	return extra
}
