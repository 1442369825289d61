// Benchmark harness: one benchmark per reproduced table and figure of the
// paper, plus micro-benchmarks for the substrate kernels. Full-experiment
// benchmarks take seconds to minutes each; run with the default -benchtime
// (each completes once per iteration and Go keeps N=1) or pin
// -benchtime=1x explicitly. Rendered artifacts are written via b.Log, so
// `go test -bench . -v` shows the reproduced rows.
package taco_test

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"testing"

	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/vecmath"
)

// sharedRunner caches training runs across benchmarks (Table V, Fig. 2,
// Fig. 4, and Fig. 5 reuse the same sweep), so the whole harness pays for
// each run once.
var (
	runnerOnce   sync.Once
	sharedRunner *experiments.Runner
)

func benchRunner() *experiments.Runner {
	runnerOnce.Do(func() {
		sharedRunner = experiments.NewRunner(experiments.ScaleBench)
	})
	return sharedRunner
}

// artifactMu guards results/artifacts_bench.txt, where every rendered
// artifact of a bench run is persisted so a plain `go test -bench .`
// leaves the reproduced tables on disk even without -v.
var artifactMu sync.Mutex

func persistArtifact(id, rendered string) {
	artifactMu.Lock()
	defer artifactMu.Unlock()
	if err := os.MkdirAll("results", 0o755); err != nil {
		return
	}
	f, err := os.OpenFile("results/artifacts_bench.txt", os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "=== %s ===\n%s\n", id, rendered)
}

// benchArtifact runs one registered experiment per iteration, logs the
// rendered artifact, and persists it under results/.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	defer recordBench(b)()
	for i := 0; i < b.N; i++ {
		artifacts, err := experiments.Run(id, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, a := range artifacts {
				if s, ok := a.(fmt.Stringer); ok {
					b.Log("\n" + s.String())
					persistArtifact(id, s.String())
				}
			}
		}
	}
}

// --- One benchmark per paper artifact (indexed in DESIGN.md §3) ---

func BenchmarkTable1ComputeTime(b *testing.B) { benchArtifact(b, "table1") }
func BenchmarkTable2AlphaGroups(b *testing.B) { benchArtifact(b, "table2") }
func BenchmarkTable3Overhead(b *testing.B)    { benchArtifact(b, "table3") }
func BenchmarkTable5RoundToAccuracy(b *testing.B) {
	benchArtifact(b, "table5")
}
func BenchmarkTable6Ablation(b *testing.B)    { benchArtifact(b, "table6") }
func BenchmarkTable7Scalability(b *testing.B) { benchArtifact(b, "table7") }
func BenchmarkTable8FreeloaderDetection(b *testing.B) {
	benchArtifact(b, "table8")
}
func BenchmarkFig2RoundAccuracy(b *testing.B) { benchArtifact(b, "fig2") }
func BenchmarkFig2TimeAccuracy(b *testing.B) {
	// Fig. 2c/2d derive from the same runs as Fig. 2a/2b; the artifact
	// renders both, so this benchmark measures the cached path.
	benchArtifact(b, "fig2")
}
func BenchmarkFig4TimeToAccuracy(b *testing.B)   { benchArtifact(b, "fig4") }
func BenchmarkFig5PerRoundTime(b *testing.B)     { benchArtifact(b, "fig5") }
func BenchmarkFig6Hybrids(b *testing.B)          { benchArtifact(b, "fig6") }
func BenchmarkFig7GammaSensitivity(b *testing.B) { benchArtifact(b, "fig7") }

// --- Scenario studies beyond the paper's artifacts ---

func BenchmarkStragglerStudy(b *testing.B) { benchArtifact(b, "straggler") }

// BenchmarkScale1k runs the thousand-client Dirichlet study enabled by
// the slot-pooled training substrate (DESIGN.md §5).
func BenchmarkScale1k(b *testing.B) { benchArtifact(b, "scale1k") }

// BenchmarkScale100k runs the hundred-thousand-client tiled-fleet study
// (Profile.FleetMultiplier, DESIGN.md §11); BenchmarkThroughput100k
// reports the same fleet's rounds/sec and updates/sec figures.
func BenchmarkScale100k(b *testing.B) { benchArtifact(b, "scale100k") }

// BenchmarkRobustness runs the client-corruption attack grid (DESIGN.md
// §6): every injector kind × FedAvg/Scaffold/FoolsGold/TACO, reporting
// per-attack honest-vs-corrupt aggregation weight mass and detection P/R.
func BenchmarkRobustness(b *testing.B) { benchArtifact(b, "robustness") }

// BenchmarkCompression runs the uplink-codec grid (DESIGN.md §7):
// dense/top-k/int8 × FedAvg/Scaffold/TACO, reporting accuracy next to
// bytes on wire and compression ratio.
func BenchmarkCompression(b *testing.B) { benchArtifact(b, "compression") }

// BenchmarkFaults runs the fault-injection grid (DESIGN.md §8): client
// crash/drop/slow mixes × FedAvg/Scaffold/TACO × sync/deadline/async,
// reporting accuracy next to degraded rounds, lost updates, and retry
// dispatches.
func BenchmarkFaults(b *testing.B) { benchArtifact(b, "faults") }

// --- Substrate micro-benchmarks ---

// BenchmarkGradEval measures one mini-batch gradient evaluation per model
// family, the unit cost behind every timing artifact. The -f32 sub-runs
// measure the same evaluation on the float32 engine (fl's DType "f32");
// comparing ds vs ds-f32 gives the fp32 training speedup per model family.
func BenchmarkGradEval(b *testing.B) {
	for _, ds := range []string{"adult", "fmnist", "cifar100", "shakespeare"} {
		net, err := dataset.Model(ds)
		if err != nil {
			b.Fatal(err)
		}
		train, _, err := dataset.Standard(ds, dataset.ScaleSmall, 1)
		if err != nil {
			b.Fatal(err)
		}
		const batch = 24
		r := rng.New(2)
		params := net.InitParams(r)
		sampler := dataset.NewSampler(train, r)
		x := make([]float64, batch*train.In.Size())
		y := make([]int, batch)
		sampler.Batch(x, y)
		b.Run(ds, func(b *testing.B) {
			defer recordBench(b)()
			eng := nn.NewEngine(net, batch)
			grad := make([]float64, net.NumParams())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Gradient(params, x, y, grad)
			}
			b.ReportMetric(float64(net.GradFlops(batch)), "flops/op")
		})
		b.Run(ds+"-f32", func(b *testing.B) {
			defer recordBench(b)()
			params32 := make([]float32, len(params))
			x32 := make([]float32, len(x))
			vecmath.Narrow(params32, params)
			vecmath.Narrow(x32, x)
			eng := nn.NewEngine32(net, batch)
			grad := make([]float32, net.NumParams())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Gradient(params32, x32, y, grad)
			}
			b.ReportMetric(float64(net.GradFlops(batch)), "flops/op")
		})
	}
}

// BenchmarkGEMM tracks the matrix-product kernels every layer lowers
// onto, at the shapes the substrate actually runs: square references plus
// the skinny products of the dense and LSTM layers and the im2col conv
// products (W·col, dW, and dX shapes). flops/s is the metric to watch
// when touching the vecmath kernels or their knobs (see DESIGN.md §2).
func BenchmarkGEMM(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"square64", 64, 64, 64},
		{"square128", 128, 128, 128},
		{"dense-fwd-24x256x64", 24, 256, 64},
		{"lstm-gates-24x16x64", 24, 16, 64},
		{"conv-fwd-8x72x64", 8, 72, 64},
		{"conv-fwd-16x144x16", 16, 144, 16},
	}
	r := rng.New(7)
	for _, s := range shapes {
		a := make([]float64, s.m*s.k)
		bb := make([]float64, s.k*s.n)
		c := make([]float64, s.m*s.n)
		for i := range a {
			a[i] = r.Normal(0, 1)
		}
		for i := range bb {
			bb[i] = r.Normal(0, 1)
		}
		flops := float64(2 * s.m * s.k * s.n)
		b.Run("Gemm/"+s.name, func(b *testing.B) {
			defer recordBench(b)()
			for i := 0; i < b.N; i++ {
				vecmath.Gemm(c, a, bb, s.m, s.k, s.n, false)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds(), "flops/s")
		})
	}
	// The transposed products at their gradient shapes: dW += Xᵀ·dY and
	// dX = dY·Wᵀ for the batch-24 dense layer above.
	const m, k, n = 24, 256, 64
	x := make([]float64, m*k)
	dy := make([]float64, m*n)
	for i := range x {
		x[i] = r.Normal(0, 1)
	}
	for i := range dy {
		dy[i] = r.Normal(0, 1)
	}
	b.Run("GemmATB/dW-24x256x64", func(b *testing.B) {
		defer recordBench(b)()
		dw := make([]float64, k*n)
		for i := 0; i < b.N; i++ {
			vecmath.GemmATB(dw, x, dy, m, k, n, true)
		}
		b.ReportMetric(float64(2*m*k*n)*float64(b.N)/b.Elapsed().Seconds(), "flops/s")
	})
	b.Run("GemmABT/dX-24x64x256", func(b *testing.B) {
		defer recordBench(b)()
		w := make([]float64, k*n)
		dx := make([]float64, m*k)
		for i := 0; i < b.N; i++ {
			vecmath.GemmABT(dx, dy, w, m, n, k, false)
		}
		b.ReportMetric(float64(2*m*k*n)*float64(b.N)/b.Elapsed().Seconds(), "flops/s")
	})
}

// BenchmarkIm2col tracks the exported patch-packing entry point at the conv
// shapes of the model zoo. nn.Im2col resolves the geometry into its offset
// table on every call; a conv layer does that once at construction, so the
// layer's own packing cost is read from BenchmarkConvLayer in internal/nn.
func BenchmarkIm2col(b *testing.B) {
	cases := []struct {
		name                          string
		inC, inH, inW, k, stride, pad int
	}{
		{"residual-8ch-8x8", 8, 8, 8, 3, 1, 1},
		{"residual-16ch-4x4", 16, 4, 4, 3, 1, 1},
		{"transition-s2", 8, 8, 8, 3, 2, 1},
	}
	r := rng.New(9)
	for _, c := range cases {
		outH := (c.inH+2*c.pad-c.k)/c.stride + 1
		outW := (c.inW+2*c.pad-c.k)/c.stride + 1
		x := make([]float64, c.inC*c.inH*c.inW)
		for i := range x {
			x[i] = r.Normal(0, 1)
		}
		dst := make([]float64, c.inC*c.k*c.k*outH*outW)
		b.Run(c.name, func(b *testing.B) {
			defer recordBench(b)()
			for i := 0; i < b.N; i++ {
				nn.Im2col(dst, x, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, outH, outW)
			}
			b.ReportMetric(float64(len(dst))*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}

// BenchmarkAXPY measures the hot vector kernel used by every correction.
// Setup runs before recordBench's memstats snapshot, so the recorded
// B/op reflects the kernel (0 allocs), not the harness buffers.
func BenchmarkAXPY(b *testing.B) {
	x := make([]float64, 4096)
	y := make([]float64, 4096)
	for i := range x {
		x[i] = float64(i)
	}
	defer recordBench(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecmath.AXPY(0.5, x, y)
	}
}

// BenchmarkCosineSimilarity measures the Eq. (7) direction factor.
// Setup precedes recordBench for an allocation-free baseline, as above.
func BenchmarkCosineSimilarity(b *testing.B) {
	r := rng.New(3)
	x := make([]float64, 4096)
	y := make([]float64, 4096)
	for i := range x {
		x[i] = r.Normal(0, 1)
		y[i] = r.Normal(0, 1)
	}
	defer recordBench(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecmath.CosineSimilarity(x, y)
	}
}

// BenchmarkCodec measures one uplink encode per codec at a model-sized
// vector (the per-client cost the compression substrate adds to a
// round), reporting effective input MB/s.
func BenchmarkCodec(b *testing.B) {
	const d = 65536
	r := rng.New(5)
	x := make([]float64, d)
	for i := range x {
		x[i] = r.Normal(0, 1)
	}
	scratch := make([]float64, d)
	codecs := []compress.Codec{
		compress.None{},
		&compress.TopK{Frac: 0.01},
		&compress.TopK{Frac: 0.10},
		&compress.Int8{Chunk: compress.DefaultChunk},
	}
	for _, c := range codecs {
		b.Run(c.Name(), func(b *testing.B) {
			var p compress.Payload
			c.Grow(&p, d)
			stream := rng.New(9)
			defer recordBench(b)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Encode(&p, x, stream, scratch)
			}
			b.ReportMetric(float64(8*d)*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB/s")
		})
	}
}

// BenchmarkSparseAggregate contrasts dense and sparse server work for
// one aggregation pass over 32 uploads of a d=65536 model: the dense
// baseline AXPYs every coordinate of every update, the sparse rows
// scatter only the k kept coordinates (vecmath.ScatterAXPY), which is
// the O(n·k)-vs-O(n·d) win the top-k codec buys the scheduler.
func BenchmarkSparseAggregate(b *testing.B) {
	const d, n = 65536, 32
	r := rng.New(11)
	dst := make([]float64, d)
	dense := make([][]float64, n)
	for u := range dense {
		dense[u] = make([]float64, d)
		for i := range dense[u] {
			dense[u][i] = r.Normal(0, 1)
		}
	}
	b.Run("dense", func(b *testing.B) {
		defer recordBench(b)()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for u := range dense {
				vecmath.AXPY(1.0/n, dense[u], dst)
			}
		}
	})
	// The f32 rows measure the same pass over float32 update buffers (the
	// precision client-side state has under DType "f32"): half the memory
	// traffic for a memory-bound kernel, so ~2x is the expected ratio.
	b.Run("dense-f32", func(b *testing.B) {
		defer recordBench(b)()
		dst32 := make([]float32, d)
		dense32 := make([][]float32, n)
		for u := range dense32 {
			dense32[u] = make([]float32, d)
			vecmath.Narrow(dense32[u], dense[u])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for u := range dense32 {
				vecmath.AXPY(1.0/n, dense32[u], dst32)
			}
		}
	})
	for _, frac := range []float64{0.01, 0.10} {
		k := int(frac * d)
		idx := make([][]int32, n)
		val := make([][]float64, n)
		for u := range idx {
			perm := r.Perm(d)[:k]
			sort.Ints(perm)
			idx[u] = make([]int32, k)
			val[u] = make([]float64, k)
			for j, pi := range perm {
				idx[u][j] = int32(pi)
				val[u][j] = dense[u][pi]
			}
		}
		name := fmt.Sprintf("topk%d%%", int(frac*100))
		b.Run(name, func(b *testing.B) {
			defer recordBench(b)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := range idx {
					vecmath.ScatterAXPY(1.0/n, idx[u], val[u], dst)
				}
			}
		})
		b.Run(name+"-gatherdot", func(b *testing.B) {
			defer recordBench(b)()
			b.ResetTimer()
			var s float64
			for i := 0; i < b.N; i++ {
				for u := range idx {
					s += vecmath.GatherDot(idx[u], val[u], dst)
				}
			}
			_ = s
		})
	}
}

// BenchmarkAggStack measures the per-round server cost the composable
// aggregation stack adds (DESIGN.md §9): the stage pipeline over a
// fleet's worth of update norms, and one FedOpt moment update at a
// model-sized parameter vector (the O(d) work FedAdam/FedYogi add per
// round). All paths must stay allocation-free — the stack rides the
// steady-state zero-alloc contract.
func BenchmarkAggStack(b *testing.B) {
	stack, err := aggstack.ParseStack("zeroing|clip")
	if err != nil {
		b.Fatal(err)
	}
	stages, err := aggstack.NewStages(stack)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1024
	r := rng.New(13)
	baseNorms := make([]float64, n)
	for i := range baseNorms {
		baseNorms[i] = math.Exp(r.Normal(0, 1))
	}
	norms := make([]float64, n)
	mult := make([]float64, n)
	b.Run("stages-n1024", func(b *testing.B) {
		defer recordBench(b)()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(norms, baseNorms)
			for j := range mult {
				mult[j] = 1
			}
			for _, st := range stages {
				st.Apply(norms, mult)
			}
		}
	})

	const d = 65536
	wPrev := make([]float64, d)
	w0 := make([]float64, d)
	w := make([]float64, d)
	for i := range wPrev {
		wPrev[i] = r.Normal(0, 1)
		w0[i] = wPrev[i] + 0.01*r.Normal(0, 1)
	}
	for _, kind := range []string{"adam", "yogi"} {
		b.Run(kind+"-step-d65536", func(b *testing.B) {
			opt, err := aggstack.NewOptimizer(aggstack.OptSpec{Kind: aggstack.OptKind(kind), LR: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			opt.Grow(d)
			defer recordBench(b)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(w, w0)
				opt.Step(wPrev, w)
			}
		})
	}
}

// BenchmarkDirichletPartition measures the non-IID partitioner.
func BenchmarkDirichletPartition(b *testing.B) {
	defer recordBench(b)()
	train, _, err := dataset.Standard("mnist", dataset.ScaleSmall, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Dirichlet(train, 20, 0.2, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
