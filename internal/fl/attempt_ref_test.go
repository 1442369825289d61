package fl

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// refRetries is a scalar replay of DESIGN §8's retry chain, written from
// the prose rather than from fault.go. Every client fault applies to
// every client. Each client draws from its own fresh stream. An attempt
// draws once per crash spec, then once per drop spec, then once per slow
// spec, each kind in spec order. It fails on a crash or a drop, or when
// the wait plus the compute time × the fired slow factors exceeds its
// budget of 3 × (wait + compute). Only a delivered attempt draws its dup
// specs. A sync dispatch retries at most twice; each failure costs the
// full budget and then a backoff of 0.25 · nominal · 2^a · (0.5 + u).
type refRetries struct {
	specs   []fault.Spec
	devices []simclock.DeviceProfile
	nominal float64
	streams []rng.RNG
}

// refAttempt is one attempt of the replay: whether it delivered, whether
// the uplink duplicated it, and its wait, duration and budget.
type refAttempt struct {
	delivered, dup    bool
	wait, dur, budget float64
}

// fired draws once per spec of the kind and reports whether any fired.
func (r *refRetries) fired(s *rng.RNG, kind fault.Kind) bool {
	any := false
	for _, f := range r.specs {
		if f.Kind == kind && s.Float64() < f.Frac {
			any = true
		}
	}
	return any
}

func (r *refRetries) attempt(id int, start float64) refAttempt {
	s, dev := &r.streams[id], r.devices[id]
	wait := dev.Availability.NextAvailable(start) - start
	compute := dev.Seconds(r.nominal)
	crash := r.fired(s, fault.KindCrash)
	drop := r.fired(s, fault.KindDrop)
	factor := 1.0
	for _, f := range r.specs {
		if f.Kind == fault.KindSlow && s.Float64() < f.Frac {
			factor *= f.Param
		}
	}
	a := refAttempt{wait: wait, dur: compute * factor, budget: 3 * (wait + compute)}
	a.delivered = !crash && !drop && a.wait+a.dur <= a.budget
	if a.delivered {
		a.dup = r.fired(s, fault.KindDup)
	}
	return a
}

func (r *refRetries) backoff(id, a int) float64 {
	return 0.25 * r.nominal * math.Pow(2, float64(a)) * (0.5 + r.streams[id].Float64())
}

// dispatch replays one sync or deadline dispatch at modeled time at.
func (r *refRetries) dispatch(id int, at float64) dispatchOutcome {
	var elapsed float64
	for a := 0; ; a++ {
		try := r.attempt(id, at+elapsed)
		if try.delivered {
			return dispatchOutcome{delivered: true, dup: try.dup, retries: a, rel: elapsed + try.wait + try.dur}
		}
		elapsed += try.budget
		if a == 2 {
			return dispatchOutcome{retries: a, rel: elapsed}
		}
		elapsed += r.backoff(id, a)
	}
}

// TestAttemptDrawMatchesReference compares resolveDispatch and
// resolveAsyncDispatch with the scalar replay, bit for bit, over a seeded
// product of fault mixes × {uniform, extreme} fleets. The replay derives
// its streams afresh in newFleet's order: init, one sampler per client,
// participation, then the fault streams (these configs have no
// adversaries and no codec). Each async failure is followed as the
// arrival loop does: a retry after its backoff while the chain lasts,
// else a fresh chain.
func TestAttemptDrawMatchesReference(t *testing.T) {
	const n = 8
	net, shards, test := poolSetup(t, n)
	mixes := [][]fault.Spec{
		{{Kind: fault.KindCrash, Frac: 0.3}},
		{{Kind: fault.KindDrop, Frac: 0.25}, {Kind: fault.KindSlow, Frac: 0.4, Param: 4}},
		{{Kind: fault.KindCrash, Frac: 0.2}, {Kind: fault.KindDrop, Frac: 0.15}, {Kind: fault.KindDup, Frac: 0.3}, {Kind: fault.KindSlow, Frac: 0.3, Param: 2.5}},
		{{Kind: fault.KindSlow, Frac: 0.5, Param: 2}, {Kind: fault.KindDup, Frac: 1}, {Kind: fault.KindSlow, Frac: 0.3, Param: 1.6}, {Kind: fault.KindCrash, Frac: 0.6}},
		{{Kind: fault.KindDup, Frac: 0.4}, {Kind: fault.KindServerCrash, Round: 2}},
	}
	var retries, lost, dups int
	for _, seed := range []uint64{5, 29} {
		for mi, mix := range mixes {
			for _, fleetName := range []string{"uniform", "extreme"} {
				for _, policy := range []AggregationPolicy{PolicySync, PolicyAsync} {
					cfg := Config{Rounds: 4, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: seed, Parallelism: 1, Policy: policy, Faults: mix}
					nominal := simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, goldenFedAvg{}.Costs())
					devices, err := simclock.FleetByName(fleetName, n, nominal, seed)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Devices = devices
					s, err := newScheduler(cfg, goldenFedAvg{}, net, shards, test)
					if err != nil {
						t.Fatal(err)
					}
					root := rng.New(seed)
					for range n + 2 {
						root.Uint64()
					}
					ref := &refRetries{specs: mix, devices: devices, nominal: nominal, streams: root.DeriveN("fault", n)}
					name := func(id, k int) string {
						return fmt.Sprintf("seed %d, mix %d, %s fleet, %s, client %d, dispatch %d", seed, mi, fleetName, policy, id, k)
					}
					if policy == PolicySync {
						at := 0.0
						for k := range 12 {
							longest := 0.0
							for id := range n {
								got, want := s.resolveDispatch(id, at), ref.dispatch(id, at)
								if got != want || math.Float64bits(got.rel) != math.Float64bits(want.rel) {
									t.Fatalf("%s: resolveDispatch %+v, reference %+v", name(id, k), got, want)
								}
								retries += got.retries
								if !got.delivered {
									lost++
								}
								if got.dup {
									dups++
								}
								longest = max(longest, got.rel)
							}
							at += longest
						}
					} else {
						at := make([]float64, n)
						for k := range 24 {
							for id := range n {
								attempt := s.attempts[id]
								got, try := s.resolveAsyncDispatch(id, at[id]), ref.attempt(id, at[id])
								want := asyncOutcome{failed: !try.delivered, dup: try.dup, finish: at[id] + try.budget, attempt: attempt}
								if try.delivered {
									want.finish = at[id] + try.wait + try.dur
								}
								if got != want {
									t.Fatalf("%s: resolveAsyncDispatch %+v, reference %+v", name(id, k), got, want)
								}
								at[id] = got.finish
								switch {
								case !got.failed:
									s.attempts[id] = 0
									if got.dup {
										dups++
									}
								case attempt < 2:
									b, wantB := s.plan.backoff(attempt, id), ref.backoff(id, attempt)
									if math.Float64bits(b) != math.Float64bits(wantB) {
										t.Fatalf("%s: backoff %v, reference %v", name(id, k), b, wantB)
									}
									s.attempts[id] = attempt + 1
									at[id] += b
									retries++
								default:
									s.attempts[id] = 0
									lost++
								}
							}
						}
					}
					s.exec.close()
				}
			}
		}
	}
	if retries == 0 || lost == 0 || dups == 0 {
		t.Fatalf("retries %d, lost chains %d, dups %d: the mixes left a branch of the chain unexercised", retries, lost, dups)
	}
	t.Logf("retries %d, lost chains %d, dups %d", retries, lost, dups)
}
