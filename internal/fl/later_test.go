package fl_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/metrics"
)

// TestAsyncDeferredDispatch pins the pool's queued rounds: an async one-
// client dispatch made between two server steps is queued on the pool
// and trains on its slots while the arrival loop runs on, and is joined
// before the next aggregate. Every async feature that reads or writes
// state around a dispatch runs at Parallelism 1 (nothing queued), 2 and
// 4, and the runs must agree bit for bit: final parameters and every
// round record, measured wall times aside. Checkpoint+Resume, the
// servercrash restore and the divergence rollback snapshot or rewind the
// flight table the queued rounds settle into; the κ-strike expulsion
// discards flights in flight. Across the test, queued rounds must have
// run on the caller's slot and on a worker's, so the queue really spread
// over two slots.
func TestAsyncDeferredDispatch(t *testing.T) {
	fl.CheckGoroutines(t)
	net, shards, test := testSetup(t, 8)
	faults, err := fault.ParseFaults("crash:0.2,drop:0.15,dup:0.2")
	if err != nil {
		t.Fatal(err)
	}
	stack, err := aggstack.ParseStack("zeroing|clip")
	if err != nil {
		t.Fatal(err)
	}
	adam, err := aggstack.ParseServerOpt("adam:0.1")
	if err != nil {
		t.Fatal(err)
	}
	fedavg := func() fl.Algorithm { return baselines.NewFedAvg() }
	taco := func() fl.Algorithm { return core.New(core.Recommended()) }
	cases := []struct {
		name   string
		alg    func() fl.Algorithm
		mutate func(*fl.Config)
		// resumeAt, when > 0, resumes every run from its own checkpoint
		// of that round and compares the resumed result.
		resumeAt int
		check    func(t *testing.T, res *fl.Result)
	}{
		{name: "faults", alg: taco, mutate: func(c *fl.Config) {
			c.Faults = faults
		}, check: func(t *testing.T, res *fl.Result) {
			var retries, dups int
			for _, r := range res.Run.Rounds {
				retries += int(r.Outcomes[metrics.Retried])
				dups += int(r.Outcomes[metrics.DupSuppressed])
			}
			if retries == 0 || dups == 0 {
				t.Fatalf("retries %d, dups %d: the fault mix never fired", retries, dups)
			}
		}},
		{name: "int8-f32", alg: fedavg, mutate: func(c *fl.Config) {
			c.DType = "f32"
			c.Compress = compress.Spec{Kind: compress.KindInt8, Chunk: 256}
		}},
		{name: "topk", alg: taco, mutate: func(c *fl.Config) {
			c.Compress = compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.1}
		}},
		{name: "signflip", alg: taco, mutate: func(c *fl.Config) {
			c.Adversaries = []adversary.Spec{{Kind: adversary.KindSignFlip, Clients: []int{1}}}
		}},
		{name: "zeroing-clip-adam", alg: fedavg, mutate: func(c *fl.Config) {
			c.AggStack, c.ServerOpt = stack, adam
		}},
		{name: "resume", alg: taco, resumeAt: 9, mutate: func(c *fl.Config) {
			c.Faults = faults
			c.CheckpointEvery = 3
		}},
		{name: "servercrash", alg: taco, mutate: func(c *fl.Config) {
			c.Faults = []fault.Spec{{Kind: fault.KindServerCrash, Round: 5}}
			c.CheckpointEvery = 2
		}, check: func(t *testing.T, res *fl.Result) {
			if res.Run.RecoveredRounds != 1 {
				t.Fatalf("RecoveredRounds = %d, want 1 (crash at 5, checkpoint at 4)", res.Run.RecoveredRounds)
			}
		}},
		{name: "rollback", alg: func() fl.Algorithm { return &nanBomb{FedAvg: baselines.NewFedAvg(), bombAt: 6} }, mutate: func(c *fl.Config) {
			c.CheckpointEvery = 2
		}, check: func(t *testing.T, res *fl.Result) {
			if res.Run.Rollbacks != 1 {
				t.Fatalf("Rollbacks = %d, want 1", res.Run.Rollbacks)
			}
		}},
		{name: "kappa-expel", alg: func() fl.Algorithm {
			cfg := core.Recommended()
			cfg.DetectFreeloaders = true
			cfg.Kappa = 0.5
			cfg.MaxStrikes = 3
			return core.New(cfg)
		}, mutate: func(c *fl.Config) {
			c.Adversaries = []adversary.Spec{adversary.Freeloaders([]int{6, 7})}
		}, check: func(t *testing.T, res *fl.Result) {
			if len(res.Expelled) == 0 {
				t.Fatal("no client expelled")
			}
		}},
	}
	var helped, offloaded int
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want *fl.Result
			for _, p := range []int{1, 2, 4} {
				cfg := policyConfig(t, fl.PolicyAsync, 11)
				cfg.Rounds = 16
				cfg.Parallelism = p
				c.mutate(&cfg)
				var blob []byte
				if c.resumeAt > 0 {
					cfg.OnCheckpoint = func(round int, data []byte) {
						if round == c.resumeAt {
							blob = append([]byte(nil), data...)
						}
					}
				}
				res, h, o, err := fl.RunLaterCounts(cfg, c.alg(), net, shards, test, nil)
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				helped, offloaded = helped+h, offloaded+o
				if c.resumeAt > 0 {
					if blob == nil {
						t.Fatalf("P=%d: no round-%d checkpoint", p, c.resumeAt)
					}
					cfg.OnCheckpoint = nil
					if res, h, o, err = fl.RunLaterCounts(cfg, c.alg(), net, shards, test, blob); err != nil {
						t.Fatalf("P=%d resume: %v", p, err)
					}
					helped, offloaded = helped+h, offloaded+o
				}
				if p == 1 {
					if h+o != 0 {
						t.Fatalf("P=1 queued %d rounds, want none", h+o)
					}
					if c.check != nil {
						c.check(t, res)
					}
					want = res
					continue
				}
				sameParams(t, want.FinalParams, res.FinalParams)
				sameRounds(t, want.Run.Rounds, res.Run.Rounds)
			}
		})
	}
	t.Logf("queued rounds: %d on the caller's slot, %d on workers' slots", helped, offloaded)
	if helped == 0 || offloaded == 0 {
		t.Fatalf("queued rounds ran %d times on the caller's slot and %d on workers' slots, want both > 0", helped, offloaded)
	}
}
