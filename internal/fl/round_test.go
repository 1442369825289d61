package fl

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// countingFedAvg is goldenFedAvg that records how many updates each
// server step aggregated, by round, counts the local rounds it started
// (sinceAggregate: since the latest Aggregate), and expels
// victims[round] at that round.
type countingFedAvg struct {
	goldenFedAvg
	aggregated     map[int]int
	victims        map[int]int
	begun          atomic.Int64
	sinceAggregate atomic.Int64
}

func (a *countingFedAvg) BeginLocal(int, int, []float64) {
	a.begun.Add(1)
	a.sinceAggregate.Add(1)
}

func (a *countingFedAvg) Aggregate(s *ServerCtx, updates []Update) {
	a.sinceAggregate.Store(0)
	a.aggregated[s.Round] = len(updates)
	if id, ok := a.victims[s.Round]; ok {
		s.Expel(id)
	}
	FedAvgStep(s, updates)
}

// settled sums a record's outcomes, leaving out the ones named.
func settled(r *metrics.Round, except ...metrics.Outcome) int {
	sum := 0
	for o, n := range r.Outcomes {
		if !slices.Contains(except, metrics.Outcome(o)) {
			sum += int(n)
		}
	}
	return sum
}

// checkConservation checks a run's outcome books (DESIGN §8) against what
// the algorithm saw: in every server step the aggregated and clipped
// updates are exactly the ones the inner Aggregate received; under sync
// and deadline every cohort member of a round settles once, retries and
// duplicates aside; under async the local rounds started are exactly the
// delivered attempts, since a failed one trains nothing: every flight
// settled over the run but the retried, the fault-dropped and failedEnds,
// the failed flights that ended Abandoned or ExpelledInFlight
// (RunFailedEnds), duplicates aside. No local round begins after the last
// Aggregate: nothing could aggregate it. n is the fleet size.
func checkConservation(t *testing.T, cfg *Config, n int, alg *countingFedAvg, res *Result, failedEnds int) {
	t.Helper()
	if len(res.Run.Rounds) != cfg.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(res.Run.Rounds), cfg.Rounds)
	}
	if late := alg.sinceAggregate.Load(); late != 0 {
		t.Errorf("%d local rounds began after the last Aggregate", late)
	}
	flights := 0
	for i := range res.Run.Rounds {
		r := &res.Run.Rounds[i]
		if got, want := int(r.Outcomes[metrics.Aggregated]+r.Outcomes[metrics.Clipped]), alg.aggregated[r.Index]; got != want {
			t.Errorf("round %d: aggregated %d + clipped %d, but the inner Aggregate saw %d updates",
				r.Index, r.Outcomes[metrics.Aggregated], r.Outcomes[metrics.Clipped], want)
		}
		flights += settled(r, metrics.DupSuppressed)
		if cfg.Policy == PolicyAsync {
			continue
		}
		active := n
		for _, at := range res.Expelled {
			if at < r.Index {
				active--
			}
		}
		cohort := active
		if f := cfg.ParticipationFraction; f > 0 && f < 1 {
			cohort = max(int(f*float64(active)+0.5), 1)
		}
		if got := settled(r, metrics.Retried, metrics.DupSuppressed); got != cohort {
			t.Errorf("round %d: outcomes %v settle %d flights, want the cohort of %d", r.Index, r.Outcomes, got, cohort)
		}
	}
	if cfg.Policy == PolicyAsync {
		failed := res.Run.Total(metrics.Retried) + res.Run.Total(metrics.FaultDropped) + failedEnds
		if begun := int(alg.begun.Load()); flights-failed != begun {
			t.Errorf("async run settled %d flights, %d of them failed, but %d local rounds began", flights, failed, begun)
		}
	}
}

// TestRoundConservation checks that every dispatch is accounted for
// exactly once (checkConservation). Its first block runs sync and
// deadline rounds over a clean fleet, a crash/drop/dup/slow mix, and the
// extreme fleet, each against a 1.5×-nominal deadline, at full and half
// participation, on one worker and four; there a duplicate is only ever
// of an aggregated update, and the dense uplink bills one 8d upload per
// aggregated update plus one per duplicate. Its second block runs a
// seeded sample of conservationProduct, which TestConservationFullProduct
// runs whole.
func TestRoundConservation(t *testing.T) {
	const n = 8
	net, shards, test := poolSetup(t, n)
	mix, err := fault.ParseFaults("crash:0.2,drop:0.15,dup:0.2,slow:0.3:3")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Rounds: 6, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 5}
	nominal := simclock.RoundSeconds(net.GradFlops(base.BatchSize), base.LocalSteps, simclock.Plain())
	extreme, err := simclock.FleetByName("extreme", n, nominal, 3)
	if err != nil {
		t.Fatal(err)
	}
	conds := []struct {
		name    string
		faults  []fault.Spec
		devices []simclock.DeviceProfile
	}{
		{"clean", nil, nil},
		{"mix", mix, nil},
		{"extreme", nil, extreme},
	}
	d := int64(net.NumParams())
	for _, policy := range []AggregationPolicy{PolicySync, PolicyDeadline} {
		for _, c := range conds {
			// lossy sums every condition's drops and cuts, so a mix that
			// never fired cannot pass as conserved.
			lossy := 0
			for _, frac := range []float64{1, 0.5} {
				for _, par := range []int{1, 4} {
					t.Run(fmt.Sprintf("%v/%s/part%v/P%d", policy, c.name, frac, par), func(t *testing.T) {
						cfg := base
						cfg.Policy, cfg.Faults, cfg.Devices = policy, c.faults, c.devices
						cfg.ParticipationFraction, cfg.Parallelism = frac, par
						if policy == PolicyDeadline {
							cfg.RoundDeadlineSec = 1.5 * nominal
						}
						alg := &countingFedAvg{aggregated: map[int]int{}}
						res, err := Run(cfg, alg, net, shards, test)
						if err != nil {
							t.Fatal(err)
						}
						checkConservation(t, &cfg, n, alg, res, 0)
						for _, r := range res.Run.Rounds {
							agg, dups := int(r.Outcomes[metrics.Aggregated]), int(r.Outcomes[metrics.DupSuppressed])
							if dups > agg {
								t.Errorf("round %d: %d duplicates of %d aggregated updates", r.Index, dups, agg)
							}
							if want := 8 * d * int64(agg+dups); r.UplinkBytes != want {
								t.Errorf("round %d: uplink %d B, want 8d·(%d+%d) = %d", r.Index, r.UplinkBytes, agg, dups, want)
							}
							lossy += int(r.Outcomes[metrics.FaultDropped] + r.Outcomes[metrics.Cut])
						}
					})
				}
			}
			if (c.faults != nil || c.devices != nil && policy == PolicyDeadline) && lossy == 0 {
				t.Errorf("%v/%s: no update was dropped or cut in any run", policy, c.name)
			}
		}
	}
	product := conservationProduct(t)
	pick := rand.New(rand.NewPCG(47, 0)).Perm(len(product))[:24]
	slices.Sort(pick)
	sample := make([]conservationCase, len(pick))
	for i, j := range pick {
		sample[i] = product[j]
	}
	runConservation(t, "sample", sample)
}

// TestConservationFullProduct runs checkConservation over the whole of
// conservationProduct.
func TestConservationFullProduct(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 108 configurations")
	}
	runConservation(t, "product", conservationProduct(t))
}

// conservationCase is one point of conservationProduct.
type conservationCase struct {
	name   string
	mutate func(*Config)
}

// conservationProduct spans policy {sync, deadline, async} × faults
// {none, crash/drop/dup/slow mix} × codec {dense, int8, topk} × stack
// {none, zeroing|clip} × Parallelism {1, 2, 4}. It leaves out servercrash
// and rollback, which rewind records.
func conservationProduct(t *testing.T) []conservationCase {
	mix, err := fault.ParseFaults("crash:0.2,drop:0.15,dup:0.2,slow:0.3:3")
	if err != nil {
		t.Fatal(err)
	}
	// Fixed bounds inside this fleet's update norms (≈ 0.04–0.17), so
	// every stage acts within six rounds.
	zclip, err := aggstack.ParseStack("zeroing:0.13|clip:0.08")
	if err != nil {
		t.Fatal(err)
	}
	faults := []struct {
		name  string
		specs []fault.Spec
	}{{"clean", nil}, {"mix", mix}}
	codecs := []compress.Spec{{}, {Kind: compress.KindInt8, Chunk: 256}, {Kind: compress.KindTopK, TopKFrac: 0.1}}
	stacks := []struct {
		name string
		spec aggstack.StackSpec
	}{{"bare", aggstack.StackSpec{}}, {"zclip", zclip}}
	var out []conservationCase
	for _, policy := range []AggregationPolicy{PolicySync, PolicyDeadline, PolicyAsync} {
		for _, f := range faults {
			for _, codec := range codecs {
				for _, st := range stacks {
					for _, par := range []int{1, 2, 4} {
						policy, f, codec, st, par := policy, f, codec, st, par
						out = append(out, conservationCase{
							name: fmt.Sprintf("%v/%s/%v/%s/P%d", policy, f.name, codec.Kind, st.name, par),
							mutate: func(c *Config) {
								c.Policy, c.Faults, c.Compress, c.AggStack, c.Parallelism = policy, f.specs, codec, st.spec, par
							},
						})
					}
				}
			}
		}
	}
	return out
}

// runConservation runs each case on an eight-client fleet that expels
// client 3 at round 2, with a 1.5×-nominal deadline and a three-update
// async buffer, and checks its books. Across the cases the stack must
// have zeroed or clipped some update, and across the async cases some
// flight must have been expelled in flight and some abandoned at the end,
// and some failed flight must have ended so, so none of those paths goes
// unchecked.
func runConservation(t *testing.T, group string, cases []conservationCase) {
	const n = 8
	net, shards, test := poolSetup(t, n)
	base := Config{Rounds: 6, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 5}
	nominal := simclock.RoundSeconds(net.GradFlops(base.BatchSize), base.LocalSteps, simclock.Plain())
	var expelled, abandoned, failedEnded, async, stacked, staged int
	for _, c := range cases {
		t.Run(group+"/"+c.name, func(t *testing.T) {
			cfg := base
			c.mutate(&cfg)
			switch cfg.Policy {
			case PolicyDeadline:
				cfg.RoundDeadlineSec = 1.5 * nominal
			case PolicyAsync:
				cfg.AsyncBuffer = 3
			}
			alg := &countingFedAvg{aggregated: map[int]int{}, victims: map[int]int{2: 3}}
			res, failedEnds, err := RunFailedEnds(cfg, alg, net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			checkConservation(t, &cfg, n, alg, res, failedEnds)
			if !cfg.AggStack.Empty() {
				stacked++
				staged += res.Run.TotalZeroedUpdates() + res.Run.TotalClippedUpdates()
			}
			if cfg.Policy == PolicyAsync {
				async++
				expelled += res.Run.Total(metrics.ExpelledInFlight)
				abandoned += res.Run.Total(metrics.Abandoned)
				failedEnded += failedEnds
			}
		})
	}
	if stacked > 0 && staged == 0 {
		t.Errorf("%d stacked runs zeroed or clipped nothing", stacked)
	}
	if async > 0 && (expelled == 0 || abandoned == 0 || failedEnded == 0) {
		t.Errorf("%d async runs: %d flights expelled in flight, %d abandoned, %d of them failed; want all > 0", async, expelled, abandoned, failedEnded)
	}
}

// TestDeadlineQuorumCountsCutStragglers pins how deadline cuts meet the
// quorum (DESIGN §8): quorum is measured over the whole cohort, cut
// stragglers included, but only checked when a dispatch fault is
// declared. Three of eight devices run 5× slow and miss a 1.5×-nominal
// deadline every round, so five of eight updates are aggregated, below a
// 0.75 quorum. A certain dup fault admits every delivery, as a clean run
// would, yet declares a dispatch fault: every round is degraded. A lone
// servercrash fault still permits the quorum but declares none: no round
// is.
func TestDeadlineQuorumCountsCutStragglers(t *testing.T) {
	const n = 8
	net, shards, test := poolSetup(t, n)
	base := Config{Rounds: 4, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 5, Policy: PolicyDeadline, Quorum: 0.75}
	nominal := simclock.RoundSeconds(net.GradFlops(base.BatchSize), base.LocalSteps, simclock.Plain())
	base.RoundDeadlineSec = 1.5 * nominal
	base.Devices = simclock.UniformFleet(n)
	for _, id := range []int{1, 4, 6} {
		base.Devices[id].SpeedFactor = 5
	}
	cases := []struct {
		name         string
		fault        fault.Spec
		wantDegraded bool
	}{
		{"dispatch fault", fault.Spec{Kind: fault.KindDup, Frac: 1}, true},
		{"servercrash only", fault.Spec{Kind: fault.KindServerCrash, Round: 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Faults = []fault.Spec{tc.fault}
			res, err := Run(cfg, goldenFedAvg{}, net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Run.Rounds {
				if cut, lost := r.Outcomes[metrics.Cut], r.Outcomes[metrics.FaultDropped]; cut != 3 || lost != 0 {
					t.Fatalf("round %d: cut %d, lost %d; want 3 cut, 0 lost", r.Index, cut, lost)
				}
				if r.Degraded != tc.wantDegraded {
					t.Errorf("round %d: Degraded = %v, want %v", r.Index, r.Degraded, tc.wantDegraded)
				}
			}
		})
	}
}
