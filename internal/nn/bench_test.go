package nn

import (
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// Layer benchmarks for the parts of the local step a profile names. Plain
// `go test -bench`: they print, and record nothing under results/.

const benchBatch = 24

// benchRotate is how many distinct input batches a layer benchmark cycles
// through. A loop that branches on the data learns one repeated batch:
// the 2×2 max-pool's compare-and-branch loop ran 4× faster on a repeated
// batch than on fresh ones, which is what a training step feeds it.
const benchRotate = 64

func benchRand(r *rng.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Normal(0, 1)
	}
	return v
}

// benchBatches returns benchRotate inputs of n random normals each.
func benchBatches(r *rng.RNG, n int) [][]float64 {
	bs := make([][]float64, benchRotate)
	for i := range bs {
		bs[i] = benchRand(r, n)
	}
	return bs
}

// BenchmarkConvLayer measures one convolution's forward and backward pass
// in flops/s of its matrix products (2·outC·K·N per sample forward; dW and,
// where the layer is not the network's first, dcol backward), at batch 24:
// the two convolutions of the fmnist CNN as they sit in the model — conv1
// first, so without an input gradient — and ResNetLite's stride-2
// transition. Packing, bias, scatter-add and the GemmABT edges are inside
// the measurement; that is the point. Forward cycles through benchRotate
// input batches and backward through as many output gradients.
func BenchmarkConvLayer(b *testing.B) {
	for _, c := range []struct {
		name            string
		in              Shape
		outC, k, stride int
		first           bool
	}{
		{"fmnist-conv1", Shape{C: 1, H: 8, W: 8}, 6, 3, 1, true},
		{"fmnist-conv2", Shape{C: 6, H: 4, W: 4}, 12, 3, 1, false},
		{"resnet-transition-s2", Shape{C: 8, H: 8, W: 8}, 16, 3, 2, false},
	} {
		l, err := newConv2D(c.in, c.outC, c.k, c.stride, 1)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(61)
		params := benchRand(r, l.paramCount())
		xs := benchBatches(r, benchBatch*l.in.Size())
		y := make([]float64, benchBatch*l.out.Size())
		dys := benchBatches(r, len(y))
		dparams := make([]float64, len(params))
		var dx []float64
		if !c.first {
			dx = make([]float64, len(xs[0]))
		}
		var sc scratch[float64]
		product := float64(2 * benchBatch * l.outC * l.patchSize() * l.out.H * l.out.W)
		b.Run(c.name+"/fwd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				convForward(l, params, xs[i%benchRotate], y, benchBatch, &sc)
			}
			b.ReportMetric(product*float64(b.N)/b.Elapsed().Seconds(), "flops/s")
		})
		b.Run(c.name+"/bwd", func(b *testing.B) {
			convForward(l, params, xs[0], y, benchBatch, &sc) // backward reads the packing
			flops := product
			if dx != nil {
				flops *= 2
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				convBackward(l, params, dys[i%benchRotate], dx, dparams, benchBatch, &sc)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds(), "flops/s")
		})
	}
}

// BenchmarkIm2col tracks the exported patch-packing entry point at the conv
// shapes of the model zoo. Im2col resolves the geometry into its offset
// table on every call; a conv layer does that once at construction, so the
// layer's own packing cost is read from BenchmarkConvLayer.
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
		x := benchRand(r, c.inC*c.inH*c.inW)
		dst := make([]float64, c.inC*c.k*c.k*outH*outW)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Im2col(dst, x, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, outH, outW)
			}
			b.ReportMetric(float64(len(dst))*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}

// largestProduct returns the dimensions of the biggest matrix product of
// one forward pass, a convolution counted as the single outC × K × batch·N
// product it would be if lowered per batch (the convention of
// bench/workloads.go).
func largestProduct(net *Network, batch int) (m, k, n int) {
	consider := func(mm, kk, nn int) {
		if mm*kk*nn > m*k*n {
			m, k, n = mm, kk, nn
		}
	}
	var visit func(l layer)
	visit = func(l layer) {
		switch l := l.(type) {
		case *dense:
			consider(batch, l.in.Size(), l.out)
		case *conv2d:
			consider(l.outC, l.patchSize(), batch*l.out.H*l.out.W)
		case *lstm:
			consider(batch, l.inDim, 4*l.hidden)
			consider(batch, l.hidden, 4*l.hidden)
		case *residualBlock:
			visit(l.conv1)
			visit(l.conv2)
		}
	}
	for _, l := range net.layers {
		visit(l)
	}
	return
}

// BenchmarkGradEvalShare reports how much of the kernel's speed one whole
// gradient evaluation reaches: GradFlops per second of Engine.Gradient at
// batch 24 ("flops/s") over the flops/s of vecmath.Gemm at the model's
// largest product ("gemm-flops/s"), as "gemm-share". 1.0 would mean the
// step costs what its matrix products cost. It cycles through benchRotate
// input batches, as a training step sees fresh data every step. The -f32
// legs run the same evaluation on Engine[float32] (fl's DType "f32")
// against Gemm at float32; a model's flops/s over its -f32 leg's is the
// fp32 training speedup for that model family.
func BenchmarkGradEvalShare(b *testing.B) {
	for _, c := range []struct {
		name string
		net  *Network
	}{
		{"adult-MLP", MLP(20, 2)},
		{"fmnist-CNN", CNN(Shape{C: 1, H: 8, W: 8}, 10)},
		{"cifar100-ResNetLite", ResNetLite(Shape{C: 3, H: 8, W: 8}, 100, 1)},
		{"shakespeare-CharLSTM", CharLSTM(8, 12, 16)},
	} {
		b.Run(c.name, func(b *testing.B) { benchGradEvalShare[float64](b, c.net) })
		b.Run(c.name+"-f32", func(b *testing.B) { benchGradEvalShare[float32](b, c.net) })
	}
}

func benchGradEvalShare[F Float](b *testing.B, net *Network) {
	r := rng.New(67)
	params := convert[F](net.InitParams(r))
	xs := make([][]F, benchRotate)
	for i, x := range benchBatches(r, benchBatch*net.in.Size()) {
		xs[i] = convert[F](x)
	}
	labels := make([][]int, benchRotate)
	for i := range labels {
		labels[i] = randLabels(r, benchBatch, net.classes)
	}
	grad := make([]F, net.total)
	eng := newEngine[F](net, benchBatch)

	m, k, n := largestProduct(net, benchBatch)
	ga, gb, gc := convert[F](benchRand(r, m*k)), convert[F](benchRand(r, k*n)), make([]F, m*n)
	gemmFlops := bestRate(float64(2*m*k*n), func() { vecmath.Gemm(gc, ga, gb, m, k, n, false) })

	eng.Gradient(params, xs[0], labels[0], grad) // size the lazy buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Gradient(params, xs[i%benchRotate], labels[i%benchRotate], grad)
	}
	gradFlops := float64(net.GradFlops(benchBatch)) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(gradFlops, "flops/s")
	b.ReportMetric(gemmFlops, "gemm-flops/s")
	b.ReportMetric(gradFlops/gemmFlops, "gemm-share")
}

// convert returns x rounded to precision F.
func convert[F Float](x []float64) []F {
	out := make([]F, len(x))
	for i, v := range x {
		out[i] = F(v)
	}
	return out
}

// BenchmarkMaxPool times the 2×2 max-pool forward pass at float64 on the
// fmnist CNN's two pooling layers at batch 24 (6×8×8 → 6×4×4 after conv1,
// 12×4×4 → 12×2×2 after conv2), in ns per output window. The inputs are
// benchRotate batches of rectified normals, what the pool sees behind the
// ReLU: half the taps are +0 ties and the winner's position is random.
func BenchmarkMaxPool(b *testing.B) {
	for _, c := range []struct {
		name string
		in   Shape
	}{
		{"fmnist-pool1", Shape{C: 6, H: 8, W: 8}},
		{"fmnist-pool2", Shape{C: 12, H: 4, W: 4}},
	} {
		b.Run(c.name, func(b *testing.B) {
			l := &maxPool2d{in: c.in, out: Shape{C: c.in.C, H: c.in.H / 2, W: c.in.W / 2}, k: 2}
			xs := benchBatches(rng.New(71), benchBatch*l.in.Size())
			for _, x := range xs {
				vecmath.ReLU(x, x)
			}
			y := make([]float64, benchBatch*l.out.Size())
			var sc scratch[float64]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				maxPoolForward(l, xs[i%benchRotate], y, benchBatch, &sc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(y)), "ns/window")
		})
	}
}

// bestRate returns work per second of f over the fastest of a few short
// timed batches, so a reference rate measured inside another benchmark's
// set-up does not inherit a scheduling hiccup.
func bestRate(work float64, f func()) float64 {
	f()
	var best float64
	for trial := 0; trial < 5; trial++ {
		const reps = 200
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if rate := work * reps / time.Since(start).Seconds(); rate > best {
			best = rate
		}
	}
	return best
}
