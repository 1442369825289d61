package fl

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// mustStack parses a stack spec or fails the test.
func mustStack(t testing.TB, s string) aggstack.StackSpec {
	t.Helper()
	spec, err := aggstack.ParseStack(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// mustOpt parses a server-optimizer spec or fails the test.
func mustOpt(t testing.TB, s string) aggstack.OptSpec {
	t.Helper()
	spec, err := aggstack.ParseServerOpt(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// stackedConfig is the stacked tests' base: the full zeroing|clip pipeline
// with FedAdam on top of the policy's required knobs.
func stackedConfig(t *testing.T, policy AggregationPolicy, seed uint64, gradFlops int64) Config {
	t.Helper()
	cfg := Config{
		Rounds:     6,
		LocalSteps: 3,
		BatchSize:  8,
		LocalLR:    0.05,
		Seed:       seed,
		Policy:     policy,
		AggStack:   mustStack(t, "zeroing|clip"),
		ServerOpt:  mustOpt(t, "adam:0.1"),
	}
	switch policy {
	case PolicyDeadline:
		cfg.RoundDeadlineSec = 10 * simclock.RoundSeconds(gradFlops, cfg.LocalSteps, simclock.Plain())
	case PolicyAsync:
		cfg.AsyncBuffer = 3
	}
	return cfg
}

// TestWrapStackZeroConfigIsNoWrap pins the identity contract at its root:
// a zero-valued AggStack/ServerOpt must return the algorithm unchanged —
// not an empty wrapper — so every unstacked run is structurally untouched.
func TestWrapStackZeroConfigIsNoWrap(t *testing.T) {
	inner := goldenFedAvg{}
	cfg := Config{}
	got, err := wrapStack(inner, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != Algorithm(inner) {
		t.Fatalf("zero-config wrapStack returned %T, want the inner algorithm unchanged", got)
	}
	cfg.AggStack = mustStack(t, "none")
	if got, err = wrapStack(inner, &cfg); err != nil || got != Algorithm(inner) {
		t.Fatalf(`"none" stack wrapped: %T, %v`, got, err)
	}
}

// TestFedSGDUnitLRMatchesBareRun pins the optimizer identity law at the
// engine level: ServerOpt fedsgd:1 wraps the rule but must reproduce the
// bare run bit-identically — FinalParams and every deterministic round
// field — because a unit-LR FedSGD server step is the vanilla apply.
func TestFedSGDUnitLRMatchesBareRun(t *testing.T) {
	net, shards, test := goldenSetup(t, 6, 4)
	cfg := Config{Rounds: 5, LocalSteps: 4, BatchSize: 16, LocalLR: 0.05, Seed: 11}
	want, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ServerOpt = mustOpt(t, "fedsgd:1")
	got, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if wh, gh := paramsHash(want.FinalParams), paramsHash(got.FinalParams); wh != gh {
		t.Fatalf("FinalParams hash mismatch: bare %016x, fedsgd:1 %016x", wh, gh)
	}
	if wn, gn := want.Run.Algorithm, got.Run.Algorithm; wn == gn {
		t.Fatalf("wrapped run kept the bare name %q — wrap did not engage", gn)
	}
	if len(want.Run.Rounds) != len(got.Run.Rounds) {
		t.Fatalf("round count: bare %d, wrapped %d", len(want.Run.Rounds), len(got.Run.Rounds))
	}
	for i := range want.Run.Rounds {
		w, g := want.Run.Rounds[i], got.Run.Rounds[i]
		w.SlowestMeasuredSec, g.SlowestMeasuredSec = 0, 0
		w.CumMeasuredSec, g.CumMeasuredSec = 0, 0
		if w != g {
			t.Fatalf("round %d record mismatch:\nbare    %+v\nwrapped %+v", i, w, g)
		}
	}
}

// TestStackedP1vsP8BitIdentity extends the parallelism-independence
// contract to the full stack: zeroing|clip + FedAdam over FedAvg must be
// bit-identical across slot counts under every policy and multiple seeds.
// The stages consume update norms in client order and the optimizer is a
// pure function of the aggregate, so no parallelism leaks in.
func TestStackedP1vsP8BitIdentity(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	for _, policy := range []AggregationPolicy{PolicySync, PolicyDeadline, PolicyAsync} {
		for _, seed := range []uint64{11, 29} {
			t.Run(fmt.Sprintf("%v-seed%d", policy, seed), func(t *testing.T) {
				cfg := stackedConfig(t, policy, seed, net.GradFlops(8))
				cfgA := cfg
				cfgA.Parallelism = 1
				cfgB := cfg
				cfgB.Parallelism = 8
				resA, err := Run(cfgA, goldenFedAvg{}, net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				resB, err := Run(cfgB, goldenFedAvg{}, net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				if ha, hb := paramsHash(resA.FinalParams), paramsHash(resB.FinalParams); ha != hb {
					t.Fatalf("FinalParams differ across slot counts: %016x vs %016x", ha, hb)
				}
				if la, lb := len(resA.Run.Rounds), len(resB.Run.Rounds); la != lb {
					t.Fatalf("round count differs across slot counts: %d vs %d", la, lb)
				}
			})
		}
	}
}

// normProbe is FedAvg that records the largest honest update norm it
// aggregates, calibrating the fixed zeroing bound in the suppression test
// below without hard-coding dataset-dependent magnitudes.
type normProbe struct {
	goldenFedAvg
	maxNorm float64
}

func (a *normProbe) Aggregate(s *ServerCtx, updates []Update) {
	for i := range updates {
		if n := updates[i].Norm(); n > a.maxNorm {
			a.maxNorm = n
		}
	}
	a.goldenFedAvg.Aggregate(s, updates)
}

// TestZeroingSuppressionWeightMetrics is the weight-remap regression: when
// zeroing drops a corrupt update before the inner rule sees it, the
// honest/corrupt weight-mass metrics must credit the suppression (corrupt
// mass 0, honest mass intact) instead of being skipped on the
// full-vs-survivor length mismatch — the bug this PR's re-map fixes. The
// zeroing bound is calibrated from a probe run's honest norms: honest
// updates clear it by 5x, the scaled corrupt update exceeds it by orders
// of magnitude, so exactly one update is zeroed every round.
func TestZeroingSuppressionWeightMetrics(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	cfg := Config{Rounds: 6, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 11}
	probe := &normProbe{}
	if _, err := Run(cfg, probe, net, shards, test); err != nil {
		t.Fatal(err)
	}
	if probe.maxNorm <= 0 {
		t.Fatalf("probe recorded no update norms")
	}

	const corrupt = 2
	cfg.Adversaries = []adversary.Spec{{Kind: adversary.KindScale, Clients: []int{corrupt}, Scale: 1e6}}
	cfg.AggStack = aggstack.StackSpec{Stages: []aggstack.StageSpec{{Kind: aggstack.StageZeroing, Norm: 5 * probe.maxNorm}}}
	res, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Run.TotalZeroedUpdates(); got != cfg.Rounds {
		t.Fatalf("TotalZeroedUpdates = %d, want %d (one corrupt drop per round)", got, cfg.Rounds)
	}
	for i, rec := range res.Run.Rounds {
		if rec.Outcomes[metrics.Zeroed] != 1 {
			t.Fatalf("round %d: %d updates zeroed, want 1", i, rec.Outcomes[metrics.Zeroed])
		}
		if rec.CorruptWeight != 0 {
			t.Fatalf("round %d: CorruptWeight = %v, want 0 (update was zeroed)", i, rec.CorruptWeight)
		}
		if rec.HonestWeight <= 0 {
			t.Fatalf("round %d: HonestWeight = %v, want > 0 (re-mapped report missing)", i, rec.HonestWeight)
		}
	}
	if res.CumWeights == nil {
		t.Fatal("adversarial run returned no cumulative weights")
	}
	if w := res.CumWeights[corrupt]; w != 0 {
		t.Fatalf("corrupt client accumulated weight %v, want 0", w)
	}
	for id, w := range res.CumWeights {
		if id != corrupt && w <= 0 {
			t.Fatalf("honest client %d accumulated weight %v, want > 0", id, w)
		}
	}
}

// stackedCapture retains checkpoints for the white-box resume test.
type stackedCapture struct {
	rounds []int
	blobs  [][]byte
}

func (c *stackedCapture) hook() func(int, []byte) {
	return func(round int, data []byte) {
		c.rounds = append(c.rounds, round)
		c.blobs = append(c.blobs, append([]byte(nil), data...))
	}
}

func (c *stackedCapture) at(round int) []byte {
	for i, r := range c.rounds {
		if r == round {
			return c.blobs[i]
		}
	}
	return nil
}

// TestStackedCheckpointResumeBitIdentical pins the wrapper's checkpoint
// state: the adaptive stage estimates and the optimizer moments (step, m,
// v) must survive a checkpoint so the resumed run replays bit-identically
// — the threshold-then-observe bounds of the remaining rounds are a pure
// function of that restored state.
func TestStackedCheckpointResumeBitIdentical(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	for _, policy := range []AggregationPolicy{PolicySync, PolicyDeadline, PolicyAsync} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := stackedConfig(t, policy, 11, net.GradFlops(8))
			cfg.Rounds = 8
			cfg.CheckpointEvery = 3
			cap := &stackedCapture{}
			cfg.OnCheckpoint = cap.hook()
			want, err := Run(cfg, goldenFedAvg{}, net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			blob := cap.at(3)
			if blob == nil {
				t.Fatalf("no checkpoint at round 3 (captured %v)", cap.rounds)
			}
			cfg.OnCheckpoint = nil
			got, err := Resume(cfg, goldenFedAvg{}, net, shards, test, blob)
			if err != nil {
				t.Fatal(err)
			}
			if wh, gh := paramsHash(want.FinalParams), paramsHash(got.FinalParams); wh != gh {
				t.Fatalf("FinalParams hash mismatch after resume: %016x vs %016x", wh, gh)
			}
			if len(want.Run.Rounds) != len(got.Run.Rounds) {
				t.Fatalf("round count: %d vs %d", len(want.Run.Rounds), len(got.Run.Rounds))
			}
			for i := range want.Run.Rounds {
				w, g := want.Run.Rounds[i], got.Run.Rounds[i]
				w.SlowestMeasuredSec, g.SlowestMeasuredSec = 0, 0
				w.CumMeasuredSec, g.CumMeasuredSec = 0, 0
				if w != g {
					t.Fatalf("round %d record mismatch:\nwant %+v\ngot  %+v", i, w, g)
				}
			}
		})
	}
}

// newFuzzStack builds a wrapped algorithm with the full stack + FedAdam
// over a tiny environment, for the state-roundtrip fuzz target.
func newFuzzStack(tb testing.TB) *stackedAlg {
	tb.Helper()
	cfg := Config{}
	var err error
	if cfg.AggStack, err = aggstack.ParseStack("zeroing|clip"); err != nil {
		tb.Fatal(err)
	}
	if cfg.ServerOpt, err = aggstack.ParseServerOpt("adam:0.1"); err != nil {
		tb.Fatal(err)
	}
	alg, err := wrapStack(goldenFedAvg{}, &cfg)
	if err != nil {
		tb.Fatal(err)
	}
	a := alg.(*stackedAlg)
	a.Setup(&Env{NumClients: 4, NumParams: 8, Cfg: cfg})
	return a
}

// FuzzStackRoundtrip feeds arbitrary bytes to the wrapper's LoadState:
// corrupt or truncated stack state must fail with an error, never a
// panic; and any accepted state must re-serialize to a fixed point
// (save → load → save is bit-identical), the property checkpoint resume
// depends on.
func FuzzStackRoundtrip(f *testing.F) {
	seedAlg := newFuzzStack(f)
	var fresh bytes.Buffer
	if err := seedAlg.SaveState(&fresh); err != nil {
		f.Fatal(err)
	}
	f.Add(fresh.Bytes())

	seedAlg.stages[0].SetEstimate(42.5)
	seedAlg.stages[1].SetEstimate(0.125)
	_, m, v := seedAlg.opt.State()
	for i := range m {
		m[i] = float64(i) * 0.25
		v[i] = float64(i) * 0.5
	}
	if err := seedAlg.opt.Restore(7, m, v); err != nil {
		f.Fatal(err)
	}
	var warmed bytes.Buffer
	if err := seedAlg.SaveState(&warmed); err != nil {
		f.Fatal(err)
	}
	f.Add(warmed.Bytes())
	f.Add(warmed.Bytes()[:warmed.Len()/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a := newFuzzStack(t)
		if err := a.LoadState(bytes.NewReader(data)); err != nil {
			return
		}
		var first bytes.Buffer
		if err := a.SaveState(&first); err != nil {
			t.Fatalf("save after accepted load: %v", err)
		}
		b := newFuzzStack(t)
		if err := b.LoadState(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("canonical state rejected on reload: %v", err)
		}
		var second bytes.Buffer
		if err := b.SaveState(&second); err != nil {
			t.Fatalf("second save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/load/save not a fixed point:\nfirst  %x\nsecond %x", first.Bytes(), second.Bytes())
		}
	})
}
