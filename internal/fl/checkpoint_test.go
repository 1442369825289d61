package fl_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/aggstack"
	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// ckptCapture retains every checkpoint a run emits (the callback's
// buffer is reused, so each blob is copied).
type ckptCapture struct {
	rounds []int
	blobs  [][]byte
}

func (c *ckptCapture) hook() func(int, []byte) {
	return func(round int, data []byte) {
		c.rounds = append(c.rounds, round)
		c.blobs = append(c.blobs, append([]byte(nil), data...))
	}
}

func (c *ckptCapture) at(round int) []byte {
	for i, r := range c.rounds {
		if r == round {
			return c.blobs[i]
		}
	}
	return nil
}

// sameRounds compares two metric histories field for field, zeroing the
// measured (real) wall-time fields, which are inherently noisy.
func sameRounds(t *testing.T, want, got []metrics.Round) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("round count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		w.SlowestMeasuredSec, g.SlowestMeasuredSec = 0, 0
		w.CumMeasuredSec, g.CumMeasuredSec = 0, 0
		if w != g {
			t.Fatalf("round %d record mismatch:\nwant %+v\ngot  %+v", i, w, g)
		}
	}
}

// sameParams compares parameter vectors bit-exactly.
func sameParams(t *testing.T, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("param count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("param %d: want %v, got %v (bit mismatch)", i, want[i], got[i])
		}
	}
}

// faultedConfig is the checkpoint tests' base configuration: a fault mix
// exercising every per-dispatch kind, periodic checkpoints, and the
// policy's required knobs.
func faultedConfig(t testing.TB, policy fl.AggregationPolicy, seed uint64, net *nn.Network) fl.Config {
	t.Helper()
	faults, err := fault.ParseFaults("crash:0.2,drop:0.15,dup:0.2,slow:0.3:3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Rounds:          8,
		LocalSteps:      4,
		BatchSize:       16,
		LocalLR:         0.05,
		Seed:            seed,
		Policy:          policy,
		Faults:          faults,
		CheckpointEvery: 3,
	}
	switch policy {
	case fl.PolicyDeadline:
		cfg.RoundDeadlineSec = 10 * simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, simclock.Plain())
	case fl.PolicyAsync:
		cfg.AsyncBuffer = 3
	}
	return cfg
}

// TestCheckpointResumeBitIdentical is the tentpole's acceptance test:
// run to completion capturing checkpoints, then resume a fresh engine
// from the mid-run checkpoint and require the final weights and every
// replayed round record to match the uninterrupted run bit-exactly —
// under all three policies, both seeds, with faults live and a stateful
// algorithm (TACO: tracker, correction, z, strikes all checkpointed).
func TestCheckpointResumeBitIdentical(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	for _, policy := range []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline, fl.PolicyAsync} {
		for _, seed := range []uint64{11, 29} {
			t.Run(fmt.Sprintf("%v-seed%d", policy, seed), func(t *testing.T) {
				cfg := faultedConfig(t, policy, seed, net)
				cap := &ckptCapture{}
				cfg.OnCheckpoint = cap.hook()
				want, err := fl.Run(cfg, core.New(core.Recommended()), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				blob := cap.at(3)
				if blob == nil {
					t.Fatalf("no checkpoint at round 3 (captured rounds %v)", cap.rounds)
				}
				cfg.OnCheckpoint = nil
				got, err := fl.Resume(cfg, core.New(core.Recommended()), net, shards, test, blob)
				if err != nil {
					t.Fatal(err)
				}
				sameParams(t, want.FinalParams, got.FinalParams)
				sameRounds(t, want.Run.Rounds, got.Run.Rounds)
				if got.Run.RecoveredRounds != 0 || got.Run.Rollbacks != 0 {
					t.Fatalf("clean resume reported recovery: %d recovered, %d rollbacks",
						got.Run.RecoveredRounds, got.Run.Rollbacks)
				}
			})
		}
	}
}

// TestCheckpointResumeStacked pins the stacked wrapper's state delegation
// over stateful inner rules: the checkpoint must capture the stage
// quantile estimates and optimizer moments AND the inner algorithm's own
// state (TACO's tracker/correction/z, Scaffold's control variates), and a
// resume must replay bit-identically — including the new per-round
// zeroed/clipped counters, which ride the round records through the
// checkpoint.
func TestCheckpointResumeStacked(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	stack, err := aggstack.ParseStack("zeroing|clip")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := aggstack.ParseServerOpt("yogi:0.1")
	if err != nil {
		t.Fatal(err)
	}
	algs := map[string]func() fl.Algorithm{
		"taco":     func() fl.Algorithm { return core.New(core.Recommended()) },
		"scaffold": func() fl.Algorithm { return baselines.NewScaffold(1) },
	}
	for _, policy := range []fl.AggregationPolicy{fl.PolicySync, fl.PolicyAsync} {
		for name, alg := range algs {
			t.Run(fmt.Sprintf("%v-%s", policy, name), func(t *testing.T) {
				cfg := faultedConfig(t, policy, 11, net)
				cfg.AggStack = stack
				cfg.ServerOpt = opt
				cap := &ckptCapture{}
				cfg.OnCheckpoint = cap.hook()
				want, err := fl.Run(cfg, alg(), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				blob := cap.at(3)
				if blob == nil {
					t.Fatalf("no checkpoint at round 3 (captured %v)", cap.rounds)
				}
				cfg.OnCheckpoint = nil
				got, err := fl.Resume(cfg, alg(), net, shards, test, blob)
				if err != nil {
					t.Fatal(err)
				}
				sameParams(t, want.FinalParams, got.FinalParams)
				sameRounds(t, want.Run.Rounds, got.Run.Rounds)
			})
		}
	}
}

// TestCheckpointResumeWithCompression pins checkpointing of the codec
// state: quantization stream cursors, error-feedback residuals, and
// (under async) the in-flight encoded payloads, dense-quantized and
// sparse.
func TestCheckpointResumeWithCompression(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	int8Spec := compress.Spec{Kind: compress.KindInt8, Chunk: 256}
	for _, r := range []struct {
		name   string
		policy fl.AggregationPolicy
		spec   compress.Spec
	}{
		{"sync", fl.PolicySync, int8Spec},
		{"async", fl.PolicyAsync, int8Spec},
		{"async-topk", fl.PolicyAsync, compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.05}},
	} {
		t.Run(r.name, func(t *testing.T) {
			cfg := faultedConfig(t, r.policy, 11, net)
			cfg.Compress = r.spec
			cap := &ckptCapture{}
			cfg.OnCheckpoint = cap.hook()
			want, err := fl.Run(cfg, baselines.NewScaffold(1), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			cfg.OnCheckpoint = nil
			got, err := fl.Resume(cfg, baselines.NewScaffold(1), net, shards, test, cap.at(3))
			if err != nil {
				t.Fatal(err)
			}
			sameParams(t, want.FinalParams, got.FinalParams)
			sameRounds(t, want.Run.Rounds, got.Run.Rounds)
		})
	}
}

// TestCheckpointCodecFlights pins the flight section's storage of an
// encoded in-flight update as its payload alone, the dense delta rebuilt
// by decoding it on load: under async × {int8, top-k} × {f64, f32} with
// the fault mix live, a Resume from the round-4 blob (which must hold at
// least one live flight) and a servercrash at round 5 that restores it
// must both end at the uninterrupted run's final params and round records,
// outcome arrays included. Top-k aggregation reads only the payload, so
// only the int8 rows can see a delta the load failed to rebuild.
func TestCheckpointCodecFlights(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	alg := func() fl.Algorithm { return core.New(core.Recommended()) }
	codecs := []compress.Spec{{Kind: compress.KindInt8, Chunk: 256}, {Kind: compress.KindTopK, TopKFrac: 0.05}}
	for _, spec := range codecs {
		for _, dtype := range []string{"f64", "f32"} {
			t.Run(fmt.Sprintf("%v/%s", spec.Kind, dtype), func(t *testing.T) {
				cfg := faultedConfig(t, fl.PolicyAsync, 11, net)
				cfg.Compress, cfg.DType, cfg.CheckpointEvery = spec, dtype, 2
				cap := &ckptCapture{}
				cfg.OnCheckpoint = cap.hook()
				want, err := fl.Run(cfg, alg(), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				cfg.OnCheckpoint = nil
				blob := cap.at(4)
				live, err := fl.RestoredFlights(cfg, alg(), net, shards, test, blob)
				if err != nil {
					t.Fatal(err)
				}
				if live == 0 {
					t.Fatal("the round-4 blob holds no live flight")
				}

				got, err := fl.Resume(cfg, alg(), net, shards, test, blob)
				if err != nil {
					t.Fatal(err)
				}
				sameParams(t, want.FinalParams, got.FinalParams)
				sameRounds(t, want.Run.Rounds, got.Run.Rounds)

				crashed := cfg
				crashed.Faults = append(slices.Clone(cfg.Faults), fault.Spec{Kind: fault.KindServerCrash, Round: 5})
				got, err = fl.Run(crashed, alg(), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				sameParams(t, want.FinalParams, got.FinalParams)
				sameRounds(t, want.Run.Rounds, got.Run.Rounds)
				if got.Run.RecoveredRounds != 1 {
					t.Fatalf("RecoveredRounds = %d, want 1 (crash at 5, checkpoint at 4)", got.Run.RecoveredRounds)
				}
			})
		}
	}
}

// TestServerCrashReplayBitIdentical pins the in-run recovery path: a
// servercrash fault kills the run at round 5, the engine restores the
// round-4 checkpoint with its rng cursors, and the replayed rounds are
// bit-identical — so the whole run matches a crash-free config exactly,
// with the detour visible only in RecoveredRounds. STEM runs at both
// precisions: its momentum is float64 algorithm state either way, and its
// extra gradient runs on the slot's engine.
func TestServerCrashReplayBitIdentical(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	algs := []struct {
		name  string
		alg   func() fl.Algorithm
		dtype string
	}{
		{"taco", func() fl.Algorithm { return core.New(core.Recommended()) }, ""},
		{"scaffold", func() fl.Algorithm { return baselines.NewScaffold(1) }, ""},
		{"stem", func() fl.Algorithm { return baselines.NewSTEM(0.2) }, ""},
		{"stem-f32", func() fl.Algorithm { return baselines.NewSTEM(0.2) }, "f32"},
		{"fedacg", func() fl.Algorithm { return baselines.NewFedACG(0.85) }, ""},
		{"fedprox(taco)", func() fl.Algorithm { return core.NewFedProxTACO(0.1) }, ""},
		{"scaffold(taco)", func() fl.Algorithm { return core.NewScaffoldTACO() }, ""},
	}
	for _, policy := range []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline, fl.PolicyAsync} {
		for _, a := range algs {
			alg := a.alg
			t.Run(fmt.Sprintf("%v-%s", policy, a.name), func(t *testing.T) {
				base := faultedConfig(t, policy, 11, net)
				base.Faults = nil
				base.CheckpointEvery = 0
				base.DType = a.dtype
				want, err := fl.Run(base, alg(), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}

				crashed := base
				crashed.Faults = []fault.Spec{{Kind: fault.KindServerCrash, Round: 5}}
				crashed.CheckpointEvery = 2
				got, err := fl.Run(crashed, alg(), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				sameParams(t, want.FinalParams, got.FinalParams)
				sameRounds(t, want.Run.Rounds, got.Run.Rounds)
				if got.Run.RecoveredRounds != 1 {
					t.Fatalf("RecoveredRounds = %d, want 1 (crash at 5, checkpoint at 4)", got.Run.RecoveredRounds)
				}
			})
		}
	}
}

// TestServerCrashRestoresActiveSet pins the restore of the sampler's
// active set: a client expelled at round 4 is active again in the round-3
// checkpoint the servercrash at round 5 restores, so the replayed rounds
// sample over the full fleet and the run stays bit-identical to the
// crash-free one — which it cannot if the restore leaves the engine's
// active-id list as it was at the crash.
func TestServerCrashRestoresActiveSet(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	for _, policy := range []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline} {
		t.Run(policy.String(), func(t *testing.T) {
			base := faultedConfig(t, policy, 11, net)
			base.Faults = nil
			base.CheckpointEvery = 0
			base.ParticipationFraction = 0.5
			want, err := fl.Run(base, &expelEarly{victim: 6, atRound: 4}, net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if want.Expelled[6] != 4 {
				t.Fatalf("Expelled = %v, want client 6 at round 4", want.Expelled)
			}

			crashed := base
			crashed.Faults = []fault.Spec{{Kind: fault.KindServerCrash, Round: 5}}
			crashed.CheckpointEvery = 3
			got, err := fl.Run(crashed, &expelEarly{victim: 6, atRound: 4}, net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			sameParams(t, want.FinalParams, got.FinalParams)
			sameRounds(t, want.Run.Rounds, got.Run.Rounds)
			if got.Run.RecoveredRounds != 2 {
				t.Fatalf("RecoveredRounds = %d, want 2 (crash at 5, checkpoint at 3)", got.Run.RecoveredRounds)
			}
		})
	}
}

// TestResumeRejectsMismatch pins the fingerprint guard: a checkpoint
// must not resume under a different config, algorithm, or after header
// corruption.
func TestResumeRejectsMismatch(t *testing.T) {
	net, shards, test := testSetup(t, 6)
	cfg := fl.Config{Rounds: 4, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 11, CheckpointEvery: 2}
	cap := &ckptCapture{}
	cfg.OnCheckpoint = cap.hook()
	if _, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test); err != nil {
		t.Fatal(err)
	}
	blob := cap.at(2)
	if blob == nil {
		t.Fatal("no checkpoint captured")
	}
	cfg.OnCheckpoint = nil

	otherSeed := cfg
	otherSeed.Seed = 12
	if _, err := fl.Resume(otherSeed, baselines.NewFedAvg(), net, shards, test, blob); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("seed mismatch: err = %v, want fingerprint rejection", err)
	}
	if _, err := fl.Resume(cfg, core.New(core.Recommended()), net, shards, test, blob); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("algorithm mismatch: err = %v, want fingerprint rejection", err)
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := fl.Resume(cfg, baselines.NewFedAvg(), net, shards, test, bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("corrupt magic: err = %v, want magic rejection", err)
	}
	stale := append([]byte(nil), blob...)
	stale[7] = '3' // the previous format's magic over an otherwise valid blob
	if _, err := fl.Resume(cfg, baselines.NewFedAvg(), net, shards, test, stale); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("previous-format magic: err = %v, want magic rejection", err)
	}
	if _, err := fl.Resume(cfg, baselines.NewFedAvg(), net, shards, test, blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// nanBomb is FedAvg that poisons the model with a NaN at its nth
// aggregation, once. The fired latch is deliberately NOT checkpointed
// (nanBomb is not a StatefulAlgorithm), modeling a transient blow-up:
// after a rollback the replayed window is clean.
type nanBomb struct {
	*baselines.FedAvg
	bombAt int
	aggs   int
	fired  bool
}

func (a *nanBomb) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	a.FedAvg.Aggregate(s, updates)
	a.aggs++
	if !a.fired && a.aggs == a.bombAt {
		a.fired = true
		s.W[0] = math.NaN()
	}
}

// TestDivergenceRollback pins the divergence guard: with checkpoints
// armed, a non-finite model rolls back to the last checkpoint (keeping
// the live rng cursors, so the replay draws fresh batches) instead of
// halting, and the run completes.
func TestDivergenceRollback(t *testing.T) {
	net, shards, test := testSetup(t, 6)
	cfg := fl.Config{Rounds: 8, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 11, CheckpointEvery: 2}
	res, err := fl.Run(cfg, &nanBomb{FedAvg: baselines.NewFedAvg(), bombAt: 6}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", res.Run.Rollbacks)
	}
	if res.Run.Diverged || res.Run.HaltRound != 0 || res.Run.HaltReason != "" {
		t.Fatalf("run should have recovered: Diverged=%v HaltRound=%d HaltReason=%q",
			res.Run.Diverged, res.Run.HaltRound, res.Run.HaltReason)
	}
	if len(res.Run.Rounds) != cfg.Rounds {
		t.Fatalf("completed %d rounds, want %d", len(res.Run.Rounds), cfg.Rounds)
	}
	for i, v := range res.FinalParams {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("final param %d non-finite after rollback: %v", i, v)
		}
	}
}

// TestDivergenceHaltSurfaced pins the no-checkpoint behavior: the run
// halts and the halt is recorded on the Run — never silent.
func TestDivergenceHaltSurfaced(t *testing.T) {
	net, shards, test := testSetup(t, 6)
	cfg := fl.Config{Rounds: 8, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 11}
	res, err := fl.Run(cfg, &nanBomb{FedAvg: baselines.NewFedAvg(), bombAt: 6}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Run.Diverged || res.Run.DivergedRound != 5 {
		t.Fatalf("Diverged=%v DivergedRound=%d, want divergence at round 5",
			res.Run.Diverged, res.Run.DivergedRound)
	}
	if res.Run.HaltRound != 5 || !strings.Contains(res.Run.HaltReason, "diverged") {
		t.Fatalf("HaltRound=%d HaltReason=%q, want halt surfaced at round 5",
			res.Run.HaltRound, res.Run.HaltReason)
	}
}

// FuzzCheckpointRestore feeds arbitrary bytes to Resume: corrupt or
// truncated checkpoints must fail with an error, never a panic or an
// absurd allocation.
func FuzzCheckpointRestore(f *testing.F) {
	train, test, err := dataset.Standard("adult", dataset.ScaleSmall, 3)
	if err != nil {
		f.Fatal(err)
	}
	part, err := partition.Dirichlet(train, 4, 0.5, rng.New(4))
	if err != nil {
		f.Fatal(err)
	}
	net, err := dataset.Model("adult")
	if err != nil {
		f.Fatal(err)
	}
	shards := part.Shards(train)

	// One run with every optional part of the state present, so mutation
	// reaches the whole walk: async in-flight int8 payloads, EF residuals,
	// fault streams, the stack wrapper's estimates and moments, and
	// TACO's own state inside it.
	cfg := faultedConfig(f, fl.PolicyAsync, 5, net)
	cfg.Rounds, cfg.LocalSteps, cfg.BatchSize, cfg.CheckpointEvery = 3, 2, 8, 1
	cfg.Compress = compress.Spec{Kind: compress.KindInt8, Chunk: 256}
	if cfg.AggStack, err = aggstack.ParseStack("zeroing|clip"); err != nil {
		f.Fatal(err)
	}
	if cfg.ServerOpt, err = aggstack.ParseServerOpt("adam:0.01"); err != nil {
		f.Fatal(err)
	}
	alg := func() fl.Algorithm { return core.New(core.Recommended()) }
	cap := &ckptCapture{}
	cfg.OnCheckpoint = cap.hook()
	if _, err := fl.Run(cfg, alg(), net, shards, test); err != nil {
		f.Fatal(err)
	}
	cfg.OnCheckpoint = nil
	for _, blob := range cap.blobs {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("FLCKPT01 but then garbage follows the magic bytes here"))
	f.Add([]byte("FLCKPT02 but then garbage follows the magic bytes here"))
	f.Add([]byte("FLCKPT03 but then garbage follows the magic bytes here"))
	f.Add([]byte("FLCKPT04 but then garbage follows the magic bytes here"))
	f.Add([]byte("FLCKPT05 but then garbage follows the magic bytes here"))
	f.Add([]byte("FLCKPT07 but then garbage follows the magic bytes here"))
	f.Add([]byte("FLCKPT08 but then garbage follows the magic bytes here"))
	f.Add([]byte("FLCKPT09 but then garbage follows the magic bytes here"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = fl.Resume(cfg, alg(), net, shards, test, data)
	})
}
