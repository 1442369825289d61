package fl

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/simclock"
)

// nanOnceFedAvg is goldenFedAvg that poisons the model with a NaN at its
// bombAt-th aggregation, once; the latch is not checkpointed, so the
// divergence rollback's replay is clean.
type nanOnceFedAvg struct {
	goldenFedAvg
	bombAt int
	aggs   *int
}

func (a nanOnceFedAvg) Aggregate(s *ServerCtx, updates []Update) {
	FedAvgStep(s, updates)
	*a.aggs++
	if *a.aggs == a.bombAt {
		s.W[0] = math.NaN()
	}
}

// TestCohortPrefetch pins the partial-participation cohorts of sync and
// deadline runs through a log of every aggregation's clients, across the
// ways a run moves its participation stream or its active set:
//   - every row draws the same cohorts at Parallelism 1 and 4, and again
//     at GOMAXPROCS 1 (suffix -procs1): the draw is a function of the
//     participation cursor and the active count alone;
//   - every cohort is the full draw, ParticipationFraction of the active
//     clients rounded to nearest, in ascending id order;
//   - an expelled client is never drawn after the round that expels it;
//   - a servercrash restore rewinds the cursor, so the cohorts from the
//     restored round on repeat the uninterrupted run's;
//   - a divergence rollback keeps the live cursor, so the replayed rounds
//     draw fresh cohorts, at every width alike.
//
// The goldens (fedavg-partial*) and TestServerCrashRestoresActiveSet pin
// the draws' bits and the run they feed.
func TestCohortPrefetch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	net, shards, test := poolSetup(t, 8)
	cases := []struct {
		name              string
		alg               func() Algorithm
		opt               func(*Config)
		victims           map[int]int // round → client expelled at that round
		restoreAt         int         // servercrash: rounds run before the crash
		restoreTo         int         // servercrash: the restored checkpoint's round
		recovered, rolled int
		replays           int // aggregations beyond one a round
	}{
		{name: "clean", alg: func() Algorithm { return goldenFedAvg{} }},
		// Clients 1 and 3 leave at rounds 2 and 4.
		{name: "expel", alg: func() Algorithm { return goldenExpelFedAvg{victims: map[int]int{2: 1, 4: 3}} },
			victims: map[int]int{2: 1, 4: 3}},
		// The crash before round 5 restores round 3's checkpoint: 22
		// aggregations, 5 and then 17 from round 3.
		{name: "servercrash", alg: func() Algorithm { return goldenFedAvg{} },
			opt: func(c *Config) {
				c.Faults = []fault.Spec{{Kind: fault.KindServerCrash, Round: 5}}
				c.CheckpointEvery = 3
			},
			restoreAt: 5, restoreTo: 3, recovered: 2, replays: 2},
		// Round 5 diverges and rolls back to round 4's checkpoint with the
		// live cursors: 22 aggregations.
		{name: "rollback", alg: func() Algorithm { return nanOnceFedAvg{bombAt: 6, aggs: new(int)} },
			opt:    func(c *Config) { c.CheckpointEvery = 2 },
			rolled: 1, replays: 2},
	}
	clean := make(map[string][][]int) // policy → the clean row's cohorts
	for _, c := range cases {
		for _, policy := range []AggregationPolicy{PolicySync, PolicyDeadline} {
			var atP1 [][]int
			for _, p := range []int{1, 4} {
				cfg := Config{
					Rounds: 20, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 11, EvalEvery: 1000,
					Policy: policy, Parallelism: p, ParticipationFraction: 0.5,
				}
				if policy == PolicyDeadline {
					cfg.RoundDeadlineSec = 10 * simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, simclock.Plain())
				}
				if c.opt != nil {
					c.opt(&cfg)
				}
				// run drives one run and returns the cohort of every
				// aggregation.
				run := func(t *testing.T) [][]int {
					var cohorts [][]int
					s, err := newScheduler(cfg, cohortLog{c.alg(), &cohorts}, net, shards, test)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(s.exec.close)
					if err := s.runAll(false); err != nil {
						t.Fatal(err)
					}
					if len(s.run.Rounds) != cfg.Rounds || s.recovered != c.recovered || s.rollbacks != c.rolled {
						t.Fatalf("%d rounds, %d recovered, %d rollbacks; want %d, %d, %d",
							len(s.run.Rounds), s.recovered, s.rollbacks, cfg.Rounds, c.recovered, c.rolled)
					}
					return cohorts
				}
				name := fmt.Sprintf("%s-%s-P%d", c.name, policy, p)
				var cohorts [][]int
				t.Run(name, func(t *testing.T) {
					cohorts = run(t)
					if want := cfg.Rounds + c.replays; len(cohorts) != want {
						t.Fatalf("%d aggregations, want %d", len(cohorts), want)
					}
					checkCohorts(t, cohorts, len(shards), c.victims)
					switch {
					case p == 1:
						atP1 = cohorts
					case !reflect.DeepEqual(cohorts, atP1):
						t.Fatalf("cohorts at P%d differ from P1's:\n%v\n%v", p, cohorts, atP1)
					}
					switch {
					case c.name == "clean":
						clean[policy.String()] = cohorts
					case c.restoreAt > 0:
						ref := clean[policy.String()]
						want := append(slices.Clone(ref[:c.restoreAt]), ref[c.restoreTo:]...)
						if !reflect.DeepEqual(cohorts, want) {
							t.Fatalf("cohorts around the restore differ from the uninterrupted run's:\n%v\n%v", cohorts, want)
						}
					}
				})
				t.Run(name+"-procs1", func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
					if serial := run(t); cohorts == nil || !reflect.DeepEqual(serial, cohorts) {
						t.Fatalf("cohorts at GOMAXPROCS 1 differ from the run on more cores:\n%v\n%v", serial, cohorts)
					}
				})
			}
		}
	}
}

// checkCohorts checks a log of n-client runs whose aggregations are one
// per round: each cohort is ascending and takes half its round's active
// clients, rounded to nearest, and no client is drawn after the round in
// victims (round → client) that expels it. Rows with a replay have no
// victims, so their aggregation index stands in for the round.
func checkCohorts(t *testing.T, cohorts [][]int, n int, victims map[int]int) {
	t.Helper()
	gone := make(map[int]int) // client → round that expelled it
	for r, ids := range cohorts {
		if want := int(0.5*float64(n-len(gone)) + 0.5); len(ids) != want {
			t.Fatalf("round %d: cohort %v of %d active clients, want %d", r, ids, n-len(gone), want)
		}
		if !slices.IsSorted(ids) {
			t.Fatalf("round %d: cohort %v not ascending", r, ids)
		}
		for _, id := range ids {
			if at, ok := gone[id]; ok {
				t.Fatalf("round %d drew client %d, expelled at round %d", r, id, at)
			}
		}
		if id, ok := victims[r]; ok {
			gone[id] = r
		}
	}
}

// cohortLog wraps an algorithm and records the clients of every
// Aggregate call, in update order.
type cohortLog struct {
	Algorithm
	cohorts *[][]int
}

func (l cohortLog) Aggregate(s *ServerCtx, updates []Update) {
	ids := make([]int, len(updates))
	for i, u := range updates {
		ids[i] = u.Client
	}
	*l.cohorts = append(*l.cohorts, ids)
	l.Algorithm.Aggregate(s, updates)
}
