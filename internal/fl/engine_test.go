package fl_test

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// testSetup builds a small 8-client adult-MLP federation.
func testSetup(t *testing.T, clients int) (*nn.Network, []*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test, err := dataset.Standard("adult", dataset.ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, clients, 0.5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataset.Model("adult")
	if err != nil {
		t.Fatal(err)
	}
	return net, part.Shards(train), test
}

func quickConfig() fl.Config {
	return fl.Config{
		Rounds:     6,
		LocalSteps: 5,
		BatchSize:  16,
		LocalLR:    0.05,
		Seed:       11,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*fl.Config)
	}{
		{"zero rounds", func(c *fl.Config) { c.Rounds = 0 }},
		{"zero steps", func(c *fl.Config) { c.LocalSteps = 0 }},
		{"zero batch", func(c *fl.Config) { c.BatchSize = 0 }},
		{"zero lr", func(c *fl.Config) { c.LocalLR = 0 }},
		{"negative global lr", func(c *fl.Config) { c.GlobalLR = -1 }},
		{"participation above one", func(c *fl.Config) { c.ParticipationFraction = 1.5 }},
		{"negative participation", func(c *fl.Config) { c.ParticipationFraction = -0.1 }},
		{"unknown policy", func(c *fl.Config) { c.Policy = fl.AggregationPolicy(99) }},
		{"negative policy", func(c *fl.Config) { c.Policy = fl.AggregationPolicy(-1) }},
		{"negative deadline", func(c *fl.Config) {
			c.Policy = fl.PolicyDeadline
			c.RoundDeadlineSec = -1
		}},
		{"deadline policy without deadline", func(c *fl.Config) { c.Policy = fl.PolicyDeadline }},
		{"deadline without deadline policy", func(c *fl.Config) { c.RoundDeadlineSec = 2 }},
		{"negative async buffer", func(c *fl.Config) {
			c.Policy = fl.PolicyAsync
			c.AsyncBuffer = -1
		}},
		{"async buffer without async policy", func(c *fl.Config) { c.AsyncBuffer = 4 }},
		{"async with partial participation", func(c *fl.Config) {
			c.Policy = fl.PolicyAsync
			c.ParticipationFraction = 0.5
		}},
		{"zero device speed", func(c *fl.Config) {
			c.Devices = []simclock.DeviceProfile{{SpeedFactor: 0}}
		}},
		{"negative device speed", func(c *fl.Config) {
			c.Devices = []simclock.DeviceProfile{{SpeedFactor: -2}}
		}},
		{"negative trace period", func(c *fl.Config) {
			c.Devices = []simclock.DeviceProfile{{SpeedFactor: 1, Availability: simclock.Trace{PeriodSec: -1}}}
		}},
		{"trace on-fraction zero", func(c *fl.Config) {
			c.Devices = []simclock.DeviceProfile{{SpeedFactor: 1, Availability: simclock.Trace{PeriodSec: 5}}}
		}},
		{"trace on-fraction above one", func(c *fl.Config) {
			c.Devices = []simclock.DeviceProfile{{SpeedFactor: 1, Availability: simclock.Trace{PeriodSec: 5, OnFraction: 1.5}}}
		}},
		{"trace offset NaN", func(c *fl.Config) {
			c.Devices = []simclock.DeviceProfile{{SpeedFactor: 1, Availability: simclock.Trace{PeriodSec: 5, OnFraction: 0.5, OffsetSec: math.NaN()}}}
		}},
		{"negative freeloader id", func(c *fl.Config) { c.Adversaries = []adversary.Spec{adversary.Freeloaders([]int{-1})} }},
		{"unknown adversary kind", func(c *fl.Config) {
			c.Adversaries = []adversary.Spec{{Kind: "nope", Frac: 0.5}}
		}},
		{"adversary selects nobody", func(c *fl.Config) {
			c.Adversaries = []adversary.Spec{{Kind: adversary.KindSignFlip}}
		}},
		{"adversary fraction above one", func(c *fl.Config) {
			c.Adversaries = []adversary.Spec{{Kind: adversary.KindSignFlip, Frac: 1.5}}
		}},
		{"adversary both selectors", func(c *fl.Config) {
			c.Adversaries = []adversary.Spec{{Kind: adversary.KindSignFlip, Clients: []int{1}, Frac: 0.5}}
		}},
		{"adversary duplicate client", func(c *fl.Config) {
			c.Adversaries = []adversary.Spec{{Kind: adversary.KindSignFlip, Clients: []int{2, 2}}}
		}},
		{"adversary negative scale", func(c *fl.Config) {
			c.Adversaries = []adversary.Spec{{Kind: adversary.KindScale, Frac: 0.5, Scale: -3}}
		}},
		{"unknown codec kind", func(c *fl.Config) {
			c.Compress = compress.Spec{Kind: "gzip"}
		}},
		{"topk fraction above one", func(c *fl.Config) {
			c.Compress = compress.Spec{Kind: compress.KindTopK, TopKFrac: 1.5}
		}},
		{"topk fraction on int8", func(c *fl.Config) {
			c.Compress = compress.Spec{Kind: compress.KindInt8, TopKFrac: 0.1}
		}},
		{"negative int8 chunk", func(c *fl.Config) {
			c.Compress = compress.Spec{Kind: compress.KindInt8, Chunk: -1}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := quickConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected a validation error")
			}
		})
	}
	valid := []struct {
		name   string
		mutate func(*fl.Config)
	}{
		{"default sync", func(*fl.Config) {}},
		{"full participation boundary", func(c *fl.Config) { c.ParticipationFraction = 1 }},
		{"topk codec defaults", func(c *fl.Config) { c.Compress = compress.Spec{Kind: compress.KindTopK} }},
		{"int8 codec chunked", func(c *fl.Config) { c.Compress = compress.Spec{Kind: compress.KindInt8, Chunk: 64} }},
		{"adversary stack", func(c *fl.Config) {
			c.Adversaries = []adversary.Spec{
				{Kind: adversary.KindLabelFlip, Frac: 0.3},
				{Kind: adversary.KindSybil, Clients: []int{0, 2}, Scale: 2},
			}
		}},
		{"deadline policy", func(c *fl.Config) {
			c.Policy = fl.PolicyDeadline
			c.RoundDeadlineSec = 1.5
		}},
		{"async policy", func(c *fl.Config) {
			c.Policy = fl.PolicyAsync
			c.AsyncBuffer = 4
		}},
		{"async default buffer", func(c *fl.Config) { c.Policy = fl.PolicyAsync }},
		{"device fleet", func(c *fl.Config) {
			c.Devices = []simclock.DeviceProfile{
				{SpeedFactor: 1},
				{SpeedFactor: 3, Availability: simclock.Trace{PeriodSec: 5, OnFraction: 0.5}},
			}
		}},
	}
	for _, tt := range valid {
		t.Run("valid "+tt.name, func(t *testing.T) {
			cfg := quickConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
		})
	}
}

func TestRunImprovesAccuracy(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	res, err := fl.Run(quickConfig(), baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	run := res.Run
	if len(run.Rounds) != 6 {
		t.Fatalf("recorded %d rounds, want 6", len(run.Rounds))
	}
	first := run.Rounds[0].Accuracy
	final := run.FinalAccuracy()
	if final <= first {
		t.Fatalf("no learning: round1 %.4f -> final %.4f", first, final)
	}
	if final < 0.6 {
		t.Fatalf("final accuracy %.4f too low for adult", final)
	}
}

// TestRunDeterministicAcrossParallelism compares 1 and 8 slots bit for
// bit: FedAvg on the float64 engine, and STEM on the float32 one, whose
// extra per-step gradient (StepCtx.GradientAt) runs on the slot it trains
// on.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cases := []struct {
		name  string
		alg   func() fl.Algorithm
		dtype string
	}{
		{"FedAvg", func() fl.Algorithm { return baselines.NewFedAvg() }, ""},
		{"STEM-f32", func() fl.Algorithm { return baselines.NewSTEM(0.2) }, "f32"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfgSerial := quickConfig()
			cfgSerial.Parallelism = 1
			cfgSerial.DType = c.dtype
			cfgParallel := cfgSerial
			cfgParallel.Parallelism = 8

			resA, err := fl.Run(cfgSerial, c.alg(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			resB, err := fl.Run(cfgParallel, c.alg(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			for i := range resA.FinalParams {
				if resA.FinalParams[i] != resB.FinalParams[i] {
					t.Fatal("parameters differ across parallelism levels")
				}
			}
			for i := range resA.Run.Rounds {
				if resA.Run.Rounds[i].Accuracy != resB.Run.Rounds[i].Accuracy {
					t.Fatal("accuracy history differs across parallelism levels")
				}
			}
		})
	}
}

func TestRunDeterministicSameSeed(t *testing.T) {
	net, shards, test := testSetup(t, 6)
	resA, err := fl.Run(quickConfig(), core.New(core.Config{}), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := fl.Run(quickConfig(), core.New(core.Config{}), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resA.FinalParams {
		if resA.FinalParams[i] != resB.FinalParams[i] {
			t.Fatal("TACO run not reproducible with identical seeds")
		}
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	net, shards, test := testSetup(t, 6)
	cfgA := quickConfig()
	cfgB := quickConfig()
	cfgB.Seed = 999
	resA, err := fl.Run(cfgA, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := fl.Run(cfgB, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range resA.FinalParams {
		if resA.FinalParams[i] != resB.FinalParams[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical models")
	}
}

func TestRunErrors(t *testing.T) {
	net, shards, test := testSetup(t, 4)
	t.Run("no shards", func(t *testing.T) {
		if _, err := fl.Run(quickConfig(), baselines.NewFedAvg(), net, nil, test); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("bad config", func(t *testing.T) {
		cfg := quickConfig()
		cfg.Rounds = 0
		if _, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("bad freeloader id", func(t *testing.T) {
		cfg := quickConfig()
		cfg.Adversaries = []adversary.Spec{adversary.Freeloaders([]int{99})}
		if _, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test); err == nil {
			t.Fatal("expected error")
		}
	})
}

// TestAllAlgorithmsRun trains every algorithm on the easy setup, once on
// the float64 engine and once on the float32 one (STEM's extra gradient
// included), and STEM once more under a clip stack at f32.
func TestAllAlgorithmsRun(t *testing.T) {
	net, shards, test := testSetup(t, 6)
	algs := func() []fl.Algorithm {
		return []fl.Algorithm{
			baselines.NewFedAvg(),
			baselines.NewFedProx(0.1),
			baselines.NewFoolsGold(),
			baselines.NewScaffold(1),
			baselines.NewSTEM(0.2),
			baselines.NewFedACG(0.001),
			core.New(core.Config{}),
			core.NewFedProxTACO(0.1),
			core.NewScaffoldTACO(),
		}
	}
	check := func(t *testing.T, cfg fl.Config, alg fl.Algorithm) {
		res, err := fl.Run(cfg, alg, net, shards, test)
		if err != nil {
			t.Fatal(err)
		}
		if res.Run.Diverged {
			t.Fatalf("%s diverged on the easy setup", alg.Name())
		}
		if res.Run.FinalAccuracy() < 0.55 {
			t.Fatalf("%s final accuracy %.4f too low", alg.Name(), res.Run.FinalAccuracy())
		}
	}
	for _, alg := range algs() {
		t.Run(alg.Name(), func(t *testing.T) { check(t, quickConfig(), alg) })
	}
	f32 := quickConfig()
	f32.DType = "f32"
	for _, alg := range algs() {
		t.Run("f32/"+alg.Name(), func(t *testing.T) { check(t, f32, alg) })
	}
	t.Run("f32/STEM-clip", func(t *testing.T) {
		cfg := f32
		var err error
		if cfg.AggStack, err = aggstack.ParseStack("clip"); err != nil {
			t.Fatal(err)
		}
		check(t, cfg, baselines.NewSTEM(0.2))
	})
}

func TestTimingRecorded(t *testing.T) {
	net, shards, test := testSetup(t, 4)
	res, err := fl.Run(quickConfig(), baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Run.Rounds {
		if rec.SlowestModeledSec <= 0 {
			t.Fatalf("round %d modeled time %v, want > 0", i, rec.SlowestModeledSec)
		}
		if rec.SlowestMeasuredSec <= 0 {
			t.Fatalf("round %d measured time %v, want > 0", i, rec.SlowestMeasuredSec)
		}
	}
	last := res.Run.Rounds[len(res.Run.Rounds)-1]
	if last.CumModeledSec <= last.SlowestModeledSec*0.99 {
		t.Fatal("cumulative modeled time not accumulating")
	}
}

func TestSTEMCostsMoreModeledTime(t *testing.T) {
	net, shards, test := testSetup(t, 4)
	fedavg, err := fl.Run(quickConfig(), baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	stem, err := fl.Run(quickConfig(), baselines.NewSTEM(0.2), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if stem.Run.Rounds[0].SlowestModeledSec <= fedavg.Run.Rounds[0].SlowestModeledSec {
		t.Fatal("STEM must cost more modeled time per round than FedAvg")
	}
}

func TestWeightByData(t *testing.T) {
	net, shards, test := testSetup(t, 5)
	cfg := quickConfig()
	cfg.WeightByData = true
	res, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.FinalAccuracy() < 0.55 {
		t.Fatalf("data-weighted FedAvg accuracy %.4f too low", res.Run.FinalAccuracy())
	}
}

func TestAggregationWeights(t *testing.T) {
	updates := []fl.Update{
		{Client: 0, NumSamples: 10},
		{Client: 1, NumSamples: 30},
	}
	uniform := fl.AggregationWeights(updates, false)
	if uniform[0] != 0.5 || uniform[1] != 0.5 {
		t.Fatalf("uniform weights = %v", uniform)
	}
	byData := fl.AggregationWeights(updates, true)
	if byData[0] != 0.25 || byData[1] != 0.75 {
		t.Fatalf("data weights = %v", byData)
	}
}

func TestFreeloaderUploadsReplay(t *testing.T) {
	net, shards, test := testSetup(t, 6)
	cfg := quickConfig()
	cfg.Adversaries = []adversary.Spec{adversary.Freeloaders([]int{5})}
	res, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	// The engine's replay mechanism must keep training functional: a
	// single freeloader merely echoes the previous global step.
	if res.Run.FinalAccuracy() < 0.55 {
		t.Fatalf("accuracy %.4f with one freeloader", res.Run.FinalAccuracy())
	}
	// The freeloader reports no training loss, so the mean loss comes
	// from honest clients only and must be finite and positive.
	if last := res.Run.Rounds[len(res.Run.Rounds)-1]; last.TrainLoss <= 0 {
		t.Fatalf("train loss %v with freeloader present", last.TrainLoss)
	}
}

func TestPartialParticipation(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := quickConfig()
	cfg.ParticipationFraction = 0.5
	res, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.FinalAccuracy() < 0.55 {
		t.Fatalf("partial participation accuracy %.4f too low", res.Run.FinalAccuracy())
	}
	// Determinism must hold under sampling too.
	res2, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.FinalParams {
		if res.FinalParams[i] != res2.FinalParams[i] {
			t.Fatal("partial participation broke determinism")
		}
	}
	// Different from the full-participation run.
	full := quickConfig()
	resFull, err := fl.Run(full, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range res.FinalParams {
		if res.FinalParams[i] != resFull.FinalParams[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("sampling had no effect on the trajectory")
	}
}

func TestParticipationValidation(t *testing.T) {
	cfg := quickConfig()
	cfg.ParticipationFraction = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected validation error for fraction > 1")
	}
	cfg.ParticipationFraction = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected validation error for negative fraction")
	}
}

// TestAsyncBufferAboveClientCount: with AsyncBuffer > n a client
// contributes several updates to one server step (it re-dispatches after
// each upload), so the per-step scratch of α-tracking algorithms must
// track the update count, not the client count — this used to panic in
// TACO's aggregate path.
func TestAsyncBufferAboveClientCount(t *testing.T) {
	net, shards, test := testSetup(t, 4)
	cfg := quickConfig()
	cfg.Policy = fl.PolicyAsync
	cfg.AsyncBuffer = 15
	res, err := fl.Run(cfg, core.New(core.Recommended()), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Run.Rounds) != cfg.Rounds {
		t.Fatalf("recorded %d server steps, want %d", len(res.Run.Rounds), cfg.Rounds)
	}
}

// TestTACOSuppressesCorruptMass is the headline defense property: under
// a sign-flip attack TACO's α-weighted aggregation grants the corrupt
// camp strictly less weight mass than FedAvg's uniform rule (which by
// construction grants exactly the head-count share).
func TestTACOSuppressesCorruptMass(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := quickConfig()
	cfg.Adversaries = []adversary.Spec{{Kind: adversary.KindSignFlip, Frac: 0.25}}
	fedavg, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	taco, err := fl.Run(cfg, core.New(core.Recommended()), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	share := 2.0 / 8
	if got := fedavg.Run.MeanCorruptWeight(); math.Abs(got-share) > 1e-9 {
		t.Fatalf("FedAvg corrupt mass %v, want the head-count share %v", got, share)
	}
	if got := taco.Run.MeanCorruptWeight(); got >= fedavg.Run.MeanCorruptWeight() {
		t.Fatalf("TACO corrupt mass %v not below FedAvg's %v", got, fedavg.Run.MeanCorruptWeight())
	}
}

// FuzzConfigValidate: Validate never panics and never accepts a config
// the engine would then choke on for spec-shape reasons.
func FuzzConfigValidate(f *testing.F) {
	f.Add(5, 3, 8, 0.05, 0.0, 0, 0.0, 0, "signflip", 0.3, 2.0)
	f.Add(1, 1, 1, 1.0, 1.0, 2, 0.0, 3, "freeload", 1.0, 0.0)
	f.Add(-1, 0, 0, -0.5, -1.0, 99, -2.0, -1, "nope", -0.5, -1.0)
	f.Fuzz(func(t *testing.T, rounds, steps, batch int, lr, glr float64,
		policy int, deadline float64, buffer int,
		kind string, frac, scale float64) {
		cfg := fl.Config{
			Rounds:           rounds,
			LocalSteps:       steps,
			BatchSize:        batch,
			LocalLR:          lr,
			GlobalLR:         glr,
			Policy:           fl.AggregationPolicy(policy),
			RoundDeadlineSec: deadline,
			AsyncBuffer:      buffer,
			Adversaries: []adversary.Spec{{
				Kind:  adversary.Kind(kind),
				Frac:  frac,
				Scale: scale,
			}},
		}
		if err := cfg.Validate(); err != nil {
			return
		}
		// An accepted spec must compile to a behavior and resolve members.
		spec := cfg.Adversaries[0]
		if spec.Behavior() == nil {
			t.Fatalf("validated spec %+v compiles to nil behavior", spec)
		}
		if got := spec.Members(16); len(got) == 0 {
			t.Fatalf("validated spec %+v selects no members for n=16", spec)
		}
	})
}

func TestStalenessDampedWeights(t *testing.T) {
	fresh := []fl.Update{
		{Client: 0, NumSamples: 10},
		{Client: 1, NumSamples: 30},
	}
	// All-fresh updates keep the legacy weights bit-identically.
	uniform := fl.AggregationWeights(fresh, false)
	if uniform[0] != 0.5 || uniform[1] != 0.5 {
		t.Fatalf("fresh uniform weights = %v", uniform)
	}
	stale := []fl.Update{
		{Client: 0, NumSamples: 10},
		{Client: 1, NumSamples: 10, Staleness: 3},
	}
	damped := fl.AggregationWeights(stale, false)
	if damped[0] <= damped[1] {
		t.Fatalf("stale update not down-weighted: %v", damped)
	}
	if sum := damped[0] + damped[1]; math.Abs(sum-1) > 1e-12 {
		t.Fatalf("damped weights sum to %v, want 1", sum)
	}
	// The 1/√(1+s) ratio is exact.
	if ratio := damped[1] / damped[0]; math.Abs(ratio-1/math.Sqrt(4)) > 1e-12 {
		t.Fatalf("damping ratio %v, want 0.5", ratio)
	}
	if fl.StalenessDamp(0) != 1 || fl.StalenessDamp(-1) != 1 {
		t.Fatal("fresh updates must keep weight 1 exactly")
	}
}
