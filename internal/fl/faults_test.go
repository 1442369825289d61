package fl_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/simclock"
)

// TestFaultDeterminismAcrossParallelism pins the fault subsystem's
// reproducibility contract: every fault outcome is drawn from dedicated
// per-client streams in the scheduler goroutine, so a faulty run is
// bit-identical at any parallelism level — P=1 and P=8, two seeds,
// all three policies.
func TestFaultDeterminismAcrossParallelism(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	for _, policy := range []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline, fl.PolicyAsync} {
		for _, seed := range []uint64{7, 19} {
			t.Run(fmt.Sprintf("%v-seed%d", policy, seed), func(t *testing.T) {
				cfg := faultedConfig(t, policy, seed, net)
				cfg.CheckpointEvery = 0

				cfg.Parallelism = 1
				one, err := fl.Run(cfg, core.New(core.Recommended()), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Parallelism = 8
				eight, err := fl.Run(cfg, core.New(core.Recommended()), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				sameParams(t, one.FinalParams, eight.FinalParams)
				sameRounds(t, one.Run.Rounds, eight.Run.Rounds)
			})
		}
	}
}

// TestAsyncFailedAttemptTrainsNothing pins that an async dispatch
// resolves its attempt before anything trains: a crashed or dropped
// attempt leaves its client's sampler cursor, int8 stream cursor, EF
// residual and Scaffold control variates bit-identical, while a delivered
// one moves them. The probe stops a Scaffold run after three server steps,
// so the residuals and c_i are live, and re-dispatches every client ten
// times, eagerly and queued on the pool.
func TestAsyncFailedAttemptTrainsNothing(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := policyConfig(t, fl.PolicyAsync, 11)
	faults, err := fault.ParseFaults("crash:0.3,drop:0.2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults, cfg.Compress, cfg.Parallelism = faults, compress.Spec{Kind: compress.KindInt8, Chunk: 64}, 2
	probe, err := fl.NewAsyncProbe(cfg, baselines.NewScaffold(1), net, shards, test, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	failed, delivered := 0, 0
	for i := range 80 {
		id := i % 8
		before, err := probe.State(id)
		if err != nil {
			t.Fatal(err)
		}
		fail := probe.Dispatch(id, i%16 >= 8)
		after, err := probe.State(id)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case fail:
			failed++
			if !bytes.Equal(before, after) {
				t.Errorf("dispatch %d: client %d's failed attempt moved its state", i, id)
			}
		default:
			delivered++
			if bytes.Equal(before, after) {
				t.Errorf("dispatch %d: client %d's delivered attempt moved nothing", i, id)
			}
		}
	}
	if failed == 0 || delivered == 0 {
		t.Fatalf("%d failed and %d delivered attempts; want both > 0", failed, delivered)
	}
}

// TestFaultsActuallyFire guards against a silently inert fault plan: the
// mixed crash/drop/slow config must produce retries and lost updates.
func TestFaultsActuallyFire(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := faultedConfig(t, fl.PolicySync, 7, net)
	cfg.CheckpointEvery = 0
	res, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.TotalRetries() == 0 {
		t.Error("no retries recorded under a 20% crash + 15% drop mix")
	}
	if res.Run.TotalDupUpdates() == 0 {
		t.Error("no duplicate deliveries recorded under a 20% dup fault")
	}
}

// TestUplinkDupIdempotence pins the duplicate-delivery contract: the
// server ingests a duplicated update once, so a dup-only faulty run
// reaches bit-identical final weights to the fault-free run — the
// duplicates are visible only in DupUpdates and the uplink byte count.
//
// The codec dimension guards the double-charging seam specifically: a
// duplicated delivery must be billed at the update's *encoded* size (the
// same bytes the codec put on the wire), not the dense 8d fallback, so
// the dup run's uplink is exactly 2× the clean run's under every codec
// and every aggregation policy.
func TestUplinkDupIdempotence(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	codecs := []struct {
		name string
		spec compress.Spec
	}{
		{"dense", compress.Spec{}},
		{"topk", compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.25}},
		{"int8", compress.Spec{Kind: compress.KindInt8, Chunk: 64}},
	}
	for _, policy := range []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline, fl.PolicyAsync} {
		for _, codec := range codecs {
			t.Run(fmt.Sprintf("%v-%s", policy, codec.name), func(t *testing.T) {
				clean := fl.Config{
					Rounds: 6, LocalSteps: 4, BatchSize: 16, LocalLR: 0.05, Seed: 11,
					Policy:   policy,
					Compress: codec.spec,
				}
				switch policy {
				case fl.PolicyDeadline:
					clean.RoundDeadlineSec = 10 * simclock.RoundSeconds(net.GradFlops(clean.BatchSize), clean.LocalSteps, simclock.Plain())
				case fl.PolicyAsync:
					clean.AsyncBuffer = 3
				}
				want, err := fl.Run(clean, baselines.NewFedAvg(), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}

				duped := clean
				duped.Faults = []fault.Spec{{Kind: fault.KindDup, Frac: 1}}
				got, err := fl.Run(duped, baselines.NewFedAvg(), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				sameParams(t, want.FinalParams, got.FinalParams)
				if got.Run.TotalDupUpdates() == 0 {
					t.Fatal("certain dup fault produced no duplicates")
				}
				var wantBytes, gotBytes int64
				for i := range want.Run.Rounds {
					wantBytes += want.Run.Rounds[i].UplinkBytes
					gotBytes += got.Run.Rounds[i].UplinkBytes
				}
				if wantBytes == 0 {
					t.Fatal("clean run recorded zero uplink bytes")
				}
				if codec.spec.Kind == compress.KindTopK && wantBytes >= int64(clean.Rounds)*int64(len(shards))*8*int64(net.NumParams()) {
					t.Fatalf("top-k run billed dense-sized uplink: %d bytes", wantBytes)
				}
				if gotBytes != 2*wantBytes {
					t.Fatalf("every-dispatch duplication should double encoded uplink bytes: clean %d, duped %d", wantBytes, gotBytes)
				}
			})
		}
	}
}

// TestQuorumDegradedRounds pins the quorum-commit semantics: under heavy
// loss with a quorum configured, below-quorum rounds commit degraded —
// recorded, never silent — and the run still completes.
func TestQuorumDegradedRounds(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := fl.Config{
		Rounds: 6, LocalSteps: 4, BatchSize: 16, LocalLR: 0.05, Seed: 11,
		Faults: []fault.Spec{{Kind: fault.KindCrash, Frac: 0.8}},
		Quorum: 0.75,
	}
	res, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.DegradedRounds() == 0 {
		t.Fatal("80% crash rate with a 0.75 quorum produced no degraded rounds")
	}
	if res.Run.TotalDroppedUpdates() == 0 {
		t.Fatal("80% crash rate lost no updates")
	}
	if len(res.Run.Rounds) != cfg.Rounds {
		t.Fatalf("run recorded %d rounds, want %d (degraded rounds must still commit)", len(res.Run.Rounds), cfg.Rounds)
	}
}

// TestSlowFaultStretchesRounds pins the latency-spike fault: modeled
// round time under a certain 4x slowdown exceeds the fault-free time,
// while measured training work is unchanged.
func TestSlowFaultStretchesRounds(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	clean := fl.Config{Rounds: 4, LocalSteps: 4, BatchSize: 16, LocalLR: 0.05, Seed: 11}
	want, err := fl.Run(clean, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	slowed := clean
	// Param 2 under the 3× timeout budget: the spike doubles compute but
	// stays inside the budget, so nothing is dropped — rounds just stretch.
	slowed.Faults = []fault.Spec{{Kind: fault.KindSlow, Frac: 1, Param: 2}}
	got, err := fl.Run(slowed, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	sameParams(t, want.FinalParams, got.FinalParams)
	if got.Run.TotalDroppedUpdates() != 0 {
		t.Fatalf("in-budget slowdown dropped %d updates", got.Run.TotalDroppedUpdates())
	}
	for i := range want.Run.Rounds {
		w, g := want.Run.Rounds[i].SlowestModeledSec, got.Run.Rounds[i].SlowestModeledSec
		if g != 2*w {
			t.Fatalf("round %d: slowed modeled time %v, want exactly 2x clean %v", i, g, w)
		}
	}
}

// TestFaultConfigValidation covers the fault-specific config rejections.
func TestFaultConfigValidation(t *testing.T) {
	net, shards, test := testSetup(t, 6)
	base := fl.Config{Rounds: 4, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 11}
	cases := []struct {
		name   string
		mutate func(*fl.Config)
	}{
		{"quorum without faults", func(c *fl.Config) { c.Quorum = 0.5 }},
		{"quorum above one", func(c *fl.Config) {
			c.Faults = []fault.Spec{{Kind: fault.KindDrop, Frac: 0.5}}
			c.Quorum = 1.5
		}},
		{"quorum under async", func(c *fl.Config) {
			c.Policy = fl.PolicyAsync
			c.AsyncBuffer = 2
			c.Faults = []fault.Spec{{Kind: fault.KindDrop, Frac: 0.5}}
			c.Quorum = 0.5
		}},
		{"certain crash", func(c *fl.Config) {
			c.Faults = []fault.Spec{{Kind: fault.KindCrash, Frac: 1}}
		}},
		{"servercrash past horizon", func(c *fl.Config) {
			c.Faults = []fault.Spec{{Kind: fault.KindServerCrash, Round: 4}}
		}},
		{"two servercrashes", func(c *fl.Config) {
			c.Faults = []fault.Spec{
				{Kind: fault.KindServerCrash, Round: 1},
				{Kind: fault.KindServerCrash, Round: 2},
			}
		}},
		{"negative checkpoint cadence", func(c *fl.Config) { c.CheckpointEvery = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test); err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			}
		})
	}
}
