package fl

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/vecmath"
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
// are stored as their 4-byte bit patterns (ckpt.Rows32) and restored
// as the same bits, so a resumed run replays bit-identically.
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
// fp32 path: warmed-up fp32 rounds — plain, fused-correction, with an
// extra GradientAt per step, compressed, and stacked — allocate nothing.
// The fp32-specific lazy allocations (a client's first EF residual, a
// slot's GradientAt output) happen during warmup.
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
		{name: "gradientAt", mk: func() Algorithm { return gradAtAlg{} }},
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
			// A round need not reach every slot, and GradientAt allocates
			// its fp32 output on a slot's first call, so every slot trains
			// once more.
			delta := make([]float64, net.NumParams())
			for _, sl := range s.pool.slots {
				localUpdate(&s.cfg, s.alg, &s.clients[0], sl, delta, round, s.params, s.clients[0].sampler)
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

// gradAtAlg pays one extra gradient per step through StepCtx.GradientAt,
// as STEM does: the step descends along the mean of the gradients at w_k
// and at the round's start w_0, on the same batch.
type gradAtAlg struct{ Base }

func (gradAtAlg) Name() string                       { return "gradAt" }
func (gradAtAlg) Aggregate(s *ServerCtx, u []Update) { FedAvgStep(s, u) }
func (gradAtAlg) GradAdjust(ctx *StepCtx) {
	ctx.GradientAt(ctx.W0, ctx.Scratch)
	for i := range ctx.Grad {
		ctx.Grad[i] = 0.5 * (ctx.Grad[i] + ctx.Scratch[i])
	}
}

// TestGradientAtContract pins StepCtx.GradientAt on both slot kinds, with
// a batch staged as a local step stages it: on a float64 slot it is the
// engine's own gradient bit for bit; on a float32 slot, at the same
// fp32-representable weights and batch, it lands within
// TestEngine32MatchesEngine64's tolerances of the float64 slot and leaves
// the step's w32 and grad32 as they were.
func TestGradientAtContract(t *testing.T) {
	net, shards, _ := poolSetup(t, 4)
	cfg := Config{Rounds: 1, LocalSteps: 1, BatchSize: 8, LocalLR: 0.05}
	cfg32 := cfg
	cfg32.DType = "f32"
	sl64, sl32 := newSlot(net, cfg), newSlot(net, cfg32)
	d := net.NumParams()

	// Weights and inputs pass through fp32 first, so both slots see the
	// same values and only the arithmetic differs.
	round32 := func(x []float64) {
		x32 := make([]float32, len(x))
		vecmath.Narrow(x32, x)
		vecmath.Widen(x, x32)
	}
	w0 := net.InitParams(rng.New(5))
	at := make([]float64, d)
	for i := range at {
		at[i] = w0[i] + 0.01*float64(i%7-3)
	}
	round32(w0)
	round32(at)
	smp := dataset.NewSamplers(shards[:1], rng.New(6).DeriveN("s", 1))[0]
	smp.Batch(sl64.batchX, sl64.batchY)
	round32(sl64.batchX)
	copy(sl32.batchX, sl64.batchX)
	copy(sl32.batchY, sl64.batchY)
	for _, sl := range []*slot{sl64, sl32} {
		copy(sl.w0, w0)
		sl.load()
		sl.gradient()
	}

	g64 := make([]float64, d)
	loss64 := sl64.ctx.GradientAt(at, g64)
	ref := make([]float64, d)
	if want := nn.NewEngine(net, cfg.BatchSize).Gradient(at, sl64.batchX, sl64.batchY, ref); loss64 != want {
		t.Fatalf("f64 GradientAt loss %v, engine %v", loss64, want)
	}
	for i := range ref {
		if g64[i] != ref[i] {
			t.Fatalf("f64 GradientAt grad[%d] = %v, engine %v", i, g64[i], ref[i])
		}
	}

	w32, grad32 := slices.Clone(sl32.w32), slices.Clone(sl32.grad32)
	g32 := make([]float64, d)
	loss32 := sl32.ctx.GradientAt(at, g32)
	if math.Abs(loss64-loss32) > 1e-4*(math.Abs(loss64)+1) {
		t.Fatalf("f32 GradientAt loss %v vs f64 %v", loss32, loss64)
	}
	var gnorm float64
	for _, v := range g64 {
		gnorm += v * v
	}
	gnorm = math.Sqrt(gnorm / float64(d))
	for i := range g64 {
		if diff := math.Abs(g32[i] - g64[i]); diff > 1e-3*(math.Abs(g64[i])+gnorm) {
			t.Fatalf("f32 GradientAt grad[%d] = %v vs f64 %v (|diff| %g)", i, g32[i], g64[i], diff)
		}
	}
	if !slices.Equal(w32, sl32.w32) || !slices.Equal(grad32, sl32.grad32) {
		t.Fatal("f32 GradientAt moved the step's w32 or grad32")
	}
}
