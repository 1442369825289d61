package main

import (
	"sort"
	"time"

	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/vecmath"
	"repro/internal/wire"
)

// timeOp returns the median seconds one call of f takes: it sizes a batch
// of calls to about 2 ms and takes the median over nine batches.
func timeOp(f func()) float64 {
	f() // warm caches and lazy buffers
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if el := time.Since(t); el >= 2*time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, 9)
	for b := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = time.Since(t).Seconds() / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

func randVec(r *rng.RNG, n int, std float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Normal(0, std)
	}
	return x
}

func narrow(x []float64) []float32 {
	y := make([]float32, len(x))
	for i, v := range x {
		y[i] = float32(v)
	}
	return y
}

// probeLayers times each layer's exported entry points directly, at the
// shapes this workload drives them with: the model's largest matrix
// product, its parameter count d, its batch, codec, stack and test set.
func probeLayers(w *workload, in *instance) (map[string]float64, error) {
	m := map[string]float64{}
	r := rng.New(7)
	cfg := &in.cfg
	d := in.net.NumParams()
	f32 := cfg.DType == "f32"

	// vecmath
	gm, gk, gn := w.gemm[0], w.gemm[1], w.gemm[2]
	a, b, c := randVec(r, gm*gk, 1), randVec(r, gk*gn, 1), make([]float64, gm*gn)
	var gemmSec float64
	if f32 {
		a32, b32, c32 := narrow(a), narrow(b), narrow(c)
		gemmSec = timeOp(func() { vecmath.Gemm32(c32, a32, b32, gm, gk, gn, false) })
	} else {
		gemmSec = timeOp(func() { vecmath.Gemm(c, a, b, gm, gk, gn, false) })
	}
	m["vecmath.gemm_gflops"] = 2 * float64(gm*gk*gn) / gemmSec / 1e9
	x, y := randVec(r, d, 0.01), randVec(r, d, 1)
	m["vecmath.axpy_gbps"] = 24 * float64(d) / timeOp(func() { vecmath.AXPY(1e-9, x, y) }) / 1e9
	topk := &compress.TopK{Frac: 0.05}
	if cfg.Compress.Kind == compress.KindTopK {
		topk.Frac = cfg.Compress.TopKFrac
	}
	var sparse compress.Payload
	topk.Grow(&sparse, d)
	topk.Encode(&sparse, x, nil, make([]float64, d))
	m["vecmath.scatter_mcoord_s"] = float64(len(sparse.Idx)) / timeOp(func() { vecmath.ScatterAXPY(1e-9, sparse.Idx, sparse.Val, y) }) / 1e6

	// nn
	params := in.net.InitParams(rng.New(11))
	bx := make([]float64, cfg.BatchSize*in.net.InShape().Size())
	by := make([]int, cfg.BatchSize)
	smp := dataset.NewSampler(in.shards[0], rng.New(13))
	smp.Batch(bx, by)
	var gradSec float64
	if f32 {
		eng := nn.NewEngine32(in.net, cfg.BatchSize)
		p32, x32, g32 := narrow(params), narrow(bx), make([]float32, d)
		gradSec = timeOp(func() { eng.Gradient(p32, x32, by, g32) })
	} else {
		eng := nn.NewEngine(in.net, cfg.BatchSize)
		grad := make([]float64, d)
		gradSec = timeOp(func() { eng.Gradient(params, bx, by, grad) })
	}
	m["nn.grad_eval_us"] = gradSec * 1e6
	m["nn.grad_eval_gflops"] = float64(in.net.GradFlops(cfg.BatchSize)) / gradSec / 1e9
	// The scheduler evaluates on an engine of this batch size, sharded
	// over GOMAXPROCS.
	evalEng := nn.NewEngine(in.net, min(256, in.test.Len()))
	m["nn.eval_ms"] = timeOp(func() { evalEng.Accuracy(params, in.test.X, in.test.Y) }) * 1e3

	// dataset, partition
	p := in.profile
	var train *dataset.Dataset
	var err error
	m["dataset.synth_ms"] = timeOp(func() { train, _, err = dataset.Standard(p.Dataset, p.DataScale, w.problemSeed) }) * 1e3
	if err != nil {
		return nil, err
	}
	m["partition.split_ms"] = timeOp(func() {
		pr := rng.New(w.problemSeed).Derive("partition", 0)
		if p.Partition == experiments.PartDirichlet {
			_, err = partition.Dirichlet(train, p.Clients, p.DirPhi, pr)
		} else {
			_, _, err = partition.Groups(train, partition.PaperGroups(p.Clients), pr)
		}
	}) * 1e3
	if err != nil {
		return nil, err
	}
	m["dataset.sample_batch_us"] = timeOp(func() { smp.Batch(bx, by) }) * 1e6

	// compress, wire: one update-sized vector through the workload's codec
	// and the frame payload codec.
	codec, err := cfg.Compress.Codec()
	if err != nil {
		return nil, err
	}
	var pay, back compress.Payload
	codec.Grow(&pay, d)
	scratch, cr, dec := make([]float64, d), rng.New(17), make([]float64, d)
	encSec := timeOp(func() { codec.Encode(&pay, x, cr, scratch) })
	decSec := timeOp(func() { codec.Decode(dec, &pay) })
	if cfg.Compress.Kind == compress.KindNone {
		encSec, decSec = 0, 0 // dense transport runs no codec
	}
	m["compress.encode_us"], m["compress.decode_us"] = encSec*1e6, decSec*1e6
	coords := d
	if pay.Sparse() {
		coords = len(pay.Idx)
	}
	buf := wire.AppendPayload(nil, &pay)
	m["compress.bytes_per_coord"] = float64(len(buf)) / float64(coords)
	m["compress.ratio"] = float64(8*d) / float64(pay.Bytes())
	m["wire.marshal_us"] = timeOp(func() { buf = wire.AppendPayload(buf[:0], &pay) }) * 1e6
	m["wire.unmarshal_us"] = timeOp(func() { _, err = wire.UnmarshalPayload(&back, buf) }) * 1e6
	if err != nil {
		return nil, err
	}

	// aggstack: one cohort's norms through the stages, one optimizer step.
	m["aggstack.stages_us"], m["aggstack.opt_step_us"] = 0, 0
	if !cfg.AggStack.Empty() {
		stages, err := aggstack.NewStages(cfg.AggStack)
		if err != nil {
			return nil, err
		}
		norms, mult := make([]float64, in.cohort), make([]float64, in.cohort)
		m["aggstack.stages_us"] = timeOp(func() {
			for i := range norms {
				norms[i], mult[i] = 1+0.01*float64(i), 1
			}
			for _, s := range stages {
				s.Apply(norms, mult)
			}
		}) * 1e6
	}
	if !cfg.ServerOpt.None() {
		opt, err := aggstack.NewOptimizer(cfg.ServerOpt)
		if err != nil {
			return nil, err
		}
		opt.Grow(d)
		wPrev, wNew := randVec(r, d, 1), make([]float64, d)
		m["aggstack.opt_step_us"] = timeOp(func() {
			copy(wNew, wPrev)
			vecmath.AXPY(1e-3, x, wNew)
			opt.Step(wPrev, wNew)
		}) * 1e6
	}
	return m, nil
}
