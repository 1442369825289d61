package fl

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
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

// TestCohortPrefetch pins the draw ahead's adoption rule through its
// counters. Every sync or deadline round after the first joins the draw
// the previous round handed to the helper. The join adopts it when the
// committed participation cursor and the active count are the ones the
// draw started from, and draws serially otherwise:
//   - a clean 20-round run adopts 19 times;
//   - an expulsion changes the count, so the next draw is redrawn;
//   - a servercrash restore rewinds the cursor, so the draw right after it
//     is redrawn;
//   - a divergence rollback keeps the live cursor, so it keeps adopting.
//
// The goldens (fedavg-partial*) and TestServerCrashRestoresActiveSet pin
// that the draws stay bit-identical either way.
//
// The counts hold on more than one core, so the test runs at GOMAXPROCS
// ≥ 2. Each row repeats at GOMAXPROCS 1 (suffix -procs1), where no core
// is left for the helper: it never starts, every draw is serial, and
// every aggregation sees the same cohort as on more cores.
func TestCohortPrefetch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	net, shards, test := poolSetup(t, 8)
	cases := []struct {
		name               string
		alg                func() Algorithm
		opt                func(*Config)
		adopted, discarded int
		recovered, rolled  int
	}{
		{name: "clean", alg: func() Algorithm { return goldenFedAvg{} }, adopted: 19},
		// Clients 1 and 3 leave at rounds 2 and 4: the draws for rounds
		// 3 and 5 see one active client fewer than they started with.
		{name: "expel", alg: func() Algorithm { return goldenExpelFedAvg{victims: map[int]int{2: 1, 4: 3}} },
			adopted: 17, discarded: 2},
		// The crash before round 5 restores round 3's checkpoint: round
		// 3's draw finds the cursor of the round-2 draw, not the round-4
		// one the helper started from. 22 draws: 5, then 17 from round 3.
		{name: "servercrash", alg: func() Algorithm { return goldenFedAvg{} },
			opt: func(c *Config) {
				c.Faults = []fault.Spec{{Kind: fault.KindServerCrash, Round: 5}}
				c.CheckpointEvery = 3
			},
			adopted: 20, discarded: 1, recovered: 2},
		// Round 5 diverges and rolls back to round 4's checkpoint with the
		// live cursors: 22 draws, all but the first adopted.
		{name: "rollback", alg: func() Algorithm { return nanOnceFedAvg{bombAt: 6, aggs: new(int)} },
			opt:     func(c *Config) { c.CheckpointEvery = 2 },
			adopted: 21, rolled: 1},
	}
	for _, c := range cases {
		for _, policy := range []AggregationPolicy{PolicySync, PolicyDeadline} {
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
				// run drives one run and returns its scheduler and the cohort
				// of every aggregation.
				run := func(t *testing.T) (*scheduler, [][]int) {
					var cohorts [][]int
					s, err := newScheduler(cfg, cohortLog{c.alg(), &cohorts}, net, shards, test)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(s.close)
					if err := s.runAll(false); err != nil {
						t.Fatal(err)
					}
					if len(s.run.Rounds) != cfg.Rounds || s.recovered != c.recovered || s.rollbacks != c.rolled {
						t.Fatalf("%d rounds, %d recovered, %d rollbacks; want %d, %d, %d",
							len(s.run.Rounds), s.recovered, s.rollbacks, cfg.Rounds, c.recovered, c.rolled)
					}
					return s, cohorts
				}
				name := fmt.Sprintf("%s-%s-P%d", c.name, policy, p)
				var cohorts [][]int
				t.Run(name, func(t *testing.T) {
					var s *scheduler
					s, cohorts = run(t)
					if s.ahead.adopted != c.adopted || s.ahead.discarded != c.discarded {
						t.Fatalf("draw ahead adopted %d and discarded %d, want %d and %d",
							s.ahead.adopted, s.ahead.discarded, c.adopted, c.discarded)
					}
				})
				t.Run(name+"-procs1", func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
					s, serial := run(t)
					if s.ahead != nil {
						t.Fatalf("GOMAXPROCS 1 started the draw-ahead helper (adopted %d, discarded %d)", s.ahead.adopted, s.ahead.discarded)
					}
					if cohorts == nil || !reflect.DeepEqual(serial, cohorts) {
						t.Fatalf("cohorts at GOMAXPROCS 1 differ from the prefetching run's:\n%v\n%v", serial, cohorts)
					}
				})
			}
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

// TestCohortPrefetchAsyncDrawsOnce pins the scope: the async policy draws
// its cohort once, at setup, and starts no helper.
func TestCohortPrefetchAsyncDrawsOnce(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	cfg := Config{Rounds: 6, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 11, Policy: PolicyAsync, AsyncBuffer: 3}
	s, err := newScheduler(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := s.runAll(false); err != nil {
		t.Fatal(err)
	}
	if s.ahead != nil {
		t.Fatal("async run started the draw-ahead helper")
	}
}
