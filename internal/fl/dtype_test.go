package fl

import (
	"strings"
	"testing"

	"repro/internal/compress"
)

// Float32-path (Config.DType "f32") engine tests. The precision contract
// under test: the fp32 path keeps every determinism guarantee of the
// float64 engine — bit-identical at any parallelism, bit-identical across
// checkpoint/resume, zero allocations in steady state — because all
// cross-client state (aggregation, algorithm hooks, checkpoints) stays
// float64; only the per-client local loop runs fp32. Numeric closeness to
// the float64 results is covered separately by the precision-drift
// regression (precision_drift_test.go).

func TestDTypeValidate(t *testing.T) {
	base := Config{Rounds: 1, LocalSteps: 1, BatchSize: 1, LocalLR: 0.1}
	for _, dt := range []string{"", "f64", "f32"} {
		c := base
		c.DType = dt
		if err := c.Validate(); err != nil {
			t.Fatalf("DType %q rejected: %v", dt, err)
		}
	}
	c := base
	c.DType = "f16"
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "DType") {
		t.Fatalf("DType \"f16\" accepted (err=%v), want DType error", err)
	}
}

// TestDTypeF64Explicit pins that DType "f64" is spelled-out default
// behavior: same bits as the zero value (the sync golden covers the zero
// value itself).
func TestDTypeF64Explicit(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	cfg := Config{Rounds: 3, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 23}
	def, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DType = "f64"
	exp, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := paramsHash(def.FinalParams), paramsHash(exp.FinalParams); ha != hb {
		t.Fatalf("DType \"f64\" differs from default: %016x vs %016x", ha, hb)
	}
}

// TestF32BitIdentityAcrossParallelism is the fp32 twin of the slot-pool
// stress regression: 32 clients over 1 vs 8 slots, fp32 local compute,
// results bit-identical. The fused-correction variant exercises the
// per-step corr32 narrowing; the int8 and top-k variants exercise
// EncodeEF32's generic and fused steps and the fp32 residual rows under
// slot multiplexing.
func TestF32BitIdentityAcrossParallelism(t *testing.T) {
	net, shards, test := poolSetup(t, 32)
	base := Config{
		Rounds:     4,
		LocalSteps: 3,
		BatchSize:  8,
		LocalLR:    0.05,
		Seed:       19,
		DType:      "f32",
	}
	variants := []struct {
		name string
		mk   func() Algorithm
		mod  func(*Config)
	}{
		{name: "fedavg", mk: func() Algorithm { return goldenFedAvg{} }},
		{name: "fusedcorr", mk: func() Algorithm { return &fusedCorrAlg{} }},
		{name: "fedavg-int8", mk: func() Algorithm { return goldenFedAvg{} }, mod: func(c *Config) {
			c.Compress = compress.Spec{Kind: compress.KindInt8, Chunk: 256}
		}},
		{name: "fedavg-topk", mk: func() Algorithm { return goldenFedAvg{} }, mod: func(c *Config) {
			c.Compress = compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.05}
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfgA := base
			cfgA.Parallelism = 1
			cfgB := base
			cfgB.Parallelism = 8
			if v.mod != nil {
				v.mod(&cfgA)
				v.mod(&cfgB)
			}
			resA, err := Run(cfgA, v.mk(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			resB, err := Run(cfgB, v.mk(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if ha, hb := paramsHash(resA.FinalParams), paramsHash(resB.FinalParams); ha != hb {
				t.Fatalf("FinalParams differ across slot counts: %016x vs %016x", ha, hb)
			}
		})
	}
}

// TestTopKErrorFeedbackGolden pins a short top-k run with error feedback
// by value, once with float64 residuals (EncodeEF) and once with float32
// ones (EncodeEF32): the FNV-1a hash of the final parameters must equal
// the one the unfused step (Add, Encode, Decode, Sub, reset, copy)
// produced. Each run has two pinned hashes, one for the assembly kernels
// and one for the pure-Go loops (-tags noasm, or a CPU without AVX2),
// because training rounds differently on the two; a change to the error
// feedback step gives neither. The other top-k tests compare the engine
// with itself.
func TestTopKErrorFeedbackGolden(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	for _, c := range []struct {
		dtype       string
		asm, scalar uint64
	}{
		{"f64", 0xb493fdee23713086, 0x2c9cd4c8602f2e42},
		{"f32", 0x7176ea47e1a9994a, 0x56fa7ecf914f3ea4},
	} {
		cfg := compressConfig(13)
		cfg.DType = c.dtype
		cfg.Compress = compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.05}
		res, err := Run(cfg, goldenFedAvg{}, net, shards, test)
		if err != nil {
			t.Fatal(err)
		}
		if got := paramsHash(res.FinalParams); got != c.asm && got != c.scalar {
			t.Errorf("%s top-k run: FinalParams hash %016x, want %016x (assembly) or %016x (pure Go)", c.dtype, got, c.asm, c.scalar)
		}
	}
}

// TestF32CheckpointResumeBitIdentical pins the fp32 state through the
// checkpoint boundary: with int8 compression live, the fp32 EF residuals
// round-trip through the float64 row format (exact widen on save, exact
// narrow on restore), so a resumed run replays bit-identically.
func TestF32CheckpointResumeBitIdentical(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	cfg := Config{
		Rounds:          6,
		LocalSteps:      3,
		BatchSize:       8,
		LocalLR:         0.05,
		Seed:            31,
		DType:           "f32",
		Compress:        compress.Spec{Kind: compress.KindInt8, Chunk: 256},
		CheckpointEvery: 3,
	}
	var blob []byte
	cfg.OnCheckpoint = func(round int, data []byte) {
		if round == 3 {
			blob = append([]byte(nil), data...)
		}
	}
	want, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no checkpoint captured at round 3")
	}
	cfg.OnCheckpoint = nil
	got, err := Resume(cfg, goldenFedAvg{}, net, shards, test, blob)
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := paramsHash(want.FinalParams), paramsHash(got.FinalParams); ha != hb {
		t.Fatalf("resumed FinalParams differ: %016x vs %016x", ha, hb)
	}
}

// TestF32SteadyStateAllocs extends the zero-allocation contract to the
// fp32 path: warmed-up fp32 rounds — plain, fused-correction, compressed,
// and stacked — allocate nothing. The only fp32-specific lazy allocation
// (a client's first EF residual) happens during warmup.
func TestF32SteadyStateAllocs(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	variants := []struct {
		name     string
		mk       func() Algorithm
		compress compress.Spec
		stacked  bool
	}{
		{name: "plain", mk: func() Algorithm { return goldenFedAvg{} }},
		{name: "fused", mk: func() Algorithm { return &fusedCorrAlg{} }},
		{name: "int8", mk: func() Algorithm { return goldenFedAvg{} }, compress: compress.Spec{Kind: compress.KindInt8, Chunk: 256}},
		{name: "topk", mk: func() Algorithm { return goldenFedAvg{} }, compress: compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.05}},
		{name: "stack", mk: func() Algorithm { return goldenFedAvg{} }, stacked: true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := Config{
				Rounds:     200,
				LocalSteps: 3,
				BatchSize:  8,
				LocalLR:    0.05,
				Seed:       11,
				EvalEvery:  1000,
				DType:      "f32",
				Compress:   v.compress,
			}
			if v.stacked {
				cfg.AggStack = mustStack(t, "zeroing|clip")
				cfg.ServerOpt = mustOpt(t, "adam:0.1")
			}
			s, err := newScheduler(cfg, v.mk(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			defer s.exec.close()
			round := 0
			for ; round < 5; round++ {
				if halt, err := s.round(round); err != nil || halt {
					t.Fatalf("warmup round %d: halt=%v err=%v", round, halt, err)
				}
			}
			allocs := testing.AllocsPerRun(30, func() {
				halt, err := s.round(round)
				if err != nil || halt {
					t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
				}
				round++
			})
			if allocs != 0 {
				t.Fatalf("steady-state f32 %s round allocates %.1f objects/round, want 0", v.name, allocs)
			}
		})
	}
}

// f64EngineAlg is a minimal algorithm carrying the RequiresF64Engine
// marker (as STEM does), for the setup-rejection test.
type f64EngineAlg struct{ Base }

func (f64EngineAlg) Name() string                       { return "needsEng" }
func (f64EngineAlg) Aggregate(s *ServerCtx, u []Update) { FedAvgStep(s, u) }
func (f64EngineAlg) RequiresF64Engine()                 {}

// TestF32RejectsF64EngineAlgorithms pins the setup-time gate: an
// algorithm that evaluates gradients through StepCtx.Eng is rejected
// under DType "f32" with a clear error instead of a nil-engine panic
// mid-round — including when wrapped in an aggregation stack, since the
// check runs on the raw algorithm before stacking.
func TestF32RejectsF64EngineAlgorithms(t *testing.T) {
	net, shards, test := poolSetup(t, 4)
	cfg := Config{Rounds: 1, LocalSteps: 1, BatchSize: 8, LocalLR: 0.05, DType: "f32"}
	if _, err := Run(cfg, f64EngineAlg{}, net, shards, test); err == nil || !strings.Contains(err.Error(), "float64 engine") {
		t.Fatalf("f32 run with engine-dependent algorithm: err=%v, want float64-engine error", err)
	}
	cfg.AggStack = mustStack(t, "clip")
	if _, err := Run(cfg, f64EngineAlg{}, net, shards, test); err == nil || !strings.Contains(err.Error(), "float64 engine") {
		t.Fatalf("stacked f32 run with engine-dependent algorithm: err=%v, want float64-engine error", err)
	}
	cfg.AggStack = mustStack(t, "none")
	cfg.DType = "f64"
	if _, err := Run(cfg, f64EngineAlg{}, net, shards, test); err != nil {
		t.Fatalf("f64 run with engine-dependent algorithm failed: %v", err)
	}
}
