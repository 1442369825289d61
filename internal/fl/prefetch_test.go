package fl

import (
	"fmt"
	"math"
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
func TestCohortPrefetch(t *testing.T) {
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
				t.Run(fmt.Sprintf("%s-%s-P%d", c.name, policy, p), func(t *testing.T) {
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
					s, err := newScheduler(cfg, c.alg(), net, shards, test)
					if err != nil {
						t.Fatal(err)
					}
					defer s.close()
					if err := s.runAll(false); err != nil {
						t.Fatal(err)
					}
					if len(s.run.Rounds) != cfg.Rounds || s.recovered != c.recovered || s.rollbacks != c.rolled {
						t.Fatalf("%d rounds, %d recovered, %d rollbacks; want %d, %d, %d",
							len(s.run.Rounds), s.recovered, s.rollbacks, cfg.Rounds, c.recovered, c.rolled)
					}
					if s.ahead.adopted != c.adopted || s.ahead.discarded != c.discarded {
						t.Fatalf("draw ahead adopted %d and discarded %d, want %d and %d",
							s.ahead.adopted, s.ahead.discarded, c.adopted, c.discarded)
					}
				})
			}
		}
	}
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
