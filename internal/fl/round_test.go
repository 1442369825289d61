package fl

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/simclock"
)

// countingFedAvg is goldenFedAvg that records how many updates each
// server step aggregated, by round.
type countingFedAvg struct {
	goldenFedAvg
	aggregated map[int]int
}

func (a *countingFedAvg) Aggregate(s *ServerCtx, updates []Update) {
	a.aggregated[s.Round] = len(updates)
	FedAvgStep(s, updates)
}

// TestRoundConservation checks that sync and deadline rounds account for
// every dispatch: each cohort member is aggregated, dropped as an update
// that never arrived, or cut as a straggler, exactly once; a duplicate is
// only ever of an aggregated update; and the dense uplink bills one 8d
// upload per aggregated update plus one per duplicate. It runs a clean
// fleet, a crash/drop/dup/slow mix, and the extreme fleet, each against a
// 1.5×-nominal deadline, at full and half participation, on one worker
// and four.
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
						if len(res.Run.Rounds) != cfg.Rounds {
							t.Fatalf("recorded %d rounds, want %d", len(res.Run.Rounds), cfg.Rounds)
						}
						cohort := n
						if frac < 1 {
							cohort = int(frac*n + 0.5)
						}
						for _, r := range res.Run.Rounds {
							agg := alg.aggregated[r.Index]
							if got := agg + r.DroppedUpdates + r.DroppedClients; got != cohort {
								t.Errorf("round %d: aggregated %d + dropped %d + cut %d = %d, want the cohort of %d",
									r.Index, agg, r.DroppedUpdates, r.DroppedClients, got, cohort)
							}
							if r.DupUpdates > agg {
								t.Errorf("round %d: %d duplicates of %d aggregated updates", r.Index, r.DupUpdates, agg)
							}
							if want := 8 * d * int64(agg+r.DupUpdates); r.UplinkBytes != want {
								t.Errorf("round %d: uplink %d B, want 8d·(%d+%d) = %d", r.Index, r.UplinkBytes, agg, r.DupUpdates, want)
							}
							lossy += r.DroppedUpdates + r.DroppedClients
						}
					})
				}
			}
			if (c.faults != nil || c.devices != nil && policy == PolicyDeadline) && lossy == 0 {
				t.Errorf("%v/%s: no update was dropped or cut in any run", policy, c.name)
			}
		}
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
				if r.DroppedClients != 3 || r.DroppedUpdates != 0 {
					t.Fatalf("round %d: cut %d, lost %d; want 3 cut, 0 lost", r.Index, r.DroppedClients, r.DroppedUpdates)
				}
				if r.Degraded != tc.wantDegraded {
					t.Errorf("round %d: Degraded = %v, want %v", r.Index, r.Degraded, tc.wantDegraded)
				}
			}
		})
	}
}
