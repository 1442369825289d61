package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// Float32-path tests: finite-difference gradient checks against the fp32
// analytic backward pass, and a differential check of the float32 engine
// against the float64 one on identical (narrowed) inputs. Tolerances are set by
// fp32 arithmetic, not the layer math — the generic bodies are shared with
// the float64 path, which gradcheck_test.go pins at 1e-4.
// The tolerance leaves headroom for the pure-Go kernel path (noasm),
// whose different summation order shifts the marginal cases by a few
// percent; genuinely wrong gradients fail at O(1).
const (
	gcStep32 = 5e-3
	gcTol32  = 3e-2
)

func checkNet32(t *testing.T, net *Network, batch int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	params64 := net.InitParams(r)
	x64 := randInput(r, batch*net.InShape().Size())
	labels := randLabels(r, batch, net.OutSize())
	params := make([]float32, len(params64))
	x := make([]float32, len(x64))
	vecmath.Narrow(params, params64)
	vecmath.Narrow(x, x64)
	if got := GradCheck32(net, params, x, labels, gcStep32); got > gcTol32 {
		t.Fatalf("fp32 gradient check failed: max relative error %.3g > %.3g\nnet:\n%s", got, gcTol32, net)
	}
}

func TestGrad32Dense(t *testing.T) {
	net := NewBuilder(Vec(7)).Dense(5).Dense(3).MustBuild()
	checkNet32(t, net, 4, 101)
}

func TestGrad32DenseReLUTanh(t *testing.T) {
	net := NewBuilder(Vec(6)).Dense(8).ReLU().Dense(8).Tanh().Dense(4).MustBuild()
	checkNet32(t, net, 3, 102)
}

// The conv nets omit ReLU: at the coarse step fp32 loss resolution
// requires, finite differences that cross a ReLU kink produce spurious
// errors far above the smooth-path tolerance. ReLU's fp32 backward is
// covered by TestGrad32DenseReLUTanh and the engine differential below.

func TestGrad32Conv2D(t *testing.T) {
	net := NewBuilder(Shape{C: 2, H: 5, W: 5}).
		Conv2D(3, 3, 1, 1).
		Dense(4).
		MustBuild()
	checkNet32(t, net, 3, 103)
}

func TestGrad32Conv2DStridePad(t *testing.T) {
	// Stride > 1 with pad > 0 exercises every valid-range edge of the
	// generic im2col packing in the fp32 instantiation.
	net := NewBuilder(Shape{C: 2, H: 7, W: 7}).
		Conv2D(3, 3, 2, 2).
		Dense(4).
		MustBuild()
	checkNet32(t, net, 2, 104)
}

func TestGrad32Conv2DRect(t *testing.T) {
	net := NewBuilder(Shape{C: 2, H: 5, W: 7}).
		Conv2D(3, 3, 1, 1).
		Dense(4).
		MustBuild()
	checkNet32(t, net, 2, 105)
}

func TestGrad32LSTM(t *testing.T) {
	net := NewBuilder(Vec(12)).
		LSTM(3, 4, 5).
		Dense(3).
		MustBuild()
	checkNet32(t, net, 3, 107)
}

// TestEngine32MatchesEngine64 runs the same gradient step through both
// engines on identical (float32-representable) parameters and inputs and
// requires the fp32 gradient to track the fp64 one within an fp32-scale
// relative tolerance. This catches dispatch mistakes — an f32 kernel
// routing to the wrong variant — that per-precision gradchecks cannot.
func TestEngine32MatchesEngine64(t *testing.T) {
	nets := map[string]*Network{
		"mlp":  NewBuilder(Vec(10)).Dense(16).ReLU().Dense(4).MustBuild(),
		"cnn":  NewBuilder(Shape{C: 1, H: 8, W: 8}).Conv2D(4, 3, 1, 1).ReLU().MaxPool2D(2).Dense(4).MustBuild(),
		"lstm": NewBuilder(Vec(20)).LSTM(4, 5, 6).Dense(3).MustBuild(),
		// Residual + pooling go through the differential check rather than
		// fp32 finite differences: the ReLU/argmax kinks make fp32-scale
		// difference quotients too noisy at the step size fp32 loss
		// resolution demands.
		"resnet": NewBuilder(Shape{C: 2, H: 4, W: 4}).Residual().MaxPool2D(2).GlobalAvgPool().Dense(3).MustBuild(),
	}
	for name, net := range nets {
		r := rng.New(42)
		params64 := net.InitParams(r)
		batch := 4
		x64 := randInput(r, batch*net.InShape().Size())
		labels := randLabels(r, batch, net.OutSize())
		// Narrow then widen so both paths see bit-identical values.
		params32 := make([]float32, len(params64))
		x32 := make([]float32, len(x64))
		vecmath.Narrow(params32, params64)
		vecmath.Narrow(x32, x64)
		vecmath.Widen(params64, params32)
		vecmath.Widen(x64, x32)

		e64 := NewEngine(net, batch)
		e32 := NewEngine32(net, batch)
		g64 := make([]float64, net.NumParams())
		g32 := make([]float32, net.NumParams())
		loss64 := e64.Gradient(params64, x64, labels, g64)
		loss32 := e32.Gradient(params32, x32, labels, g32)
		if math.Abs(loss64-loss32) > 1e-4*(math.Abs(loss64)+1) {
			t.Fatalf("%s: loss fp32 %v vs fp64 %v", name, loss32, loss64)
		}
		var gnorm float64
		for _, v := range g64 {
			gnorm += v * v
		}
		gnorm = math.Sqrt(gnorm / float64(len(g64)))
		for i := range g64 {
			if d := math.Abs(float64(g32[i]) - g64[i]); d > 1e-3*(math.Abs(g64[i])+gnorm) {
				t.Fatalf("%s: grad[%d] fp32 %v vs fp64 %v (|diff| %g)", name, i, g32[i], g64[i], d)
			}
		}
	}
}

// TestGenericDispatchAllocs pins the property both precisions' hot paths
// rely on: neither the engine's layer switch nor the kernel-table lookup
// inside the vecmath drivers boxes an operand, so a layer pass reached
// through the generic dispatch stays allocation-free.
func TestGenericDispatchAllocs(t *testing.T) {
	run64, run32 := dispatchDense[float64](), dispatchDense[float32]()
	if n := testing.AllocsPerRun(100, func() { run64(); run32() }); n != 0 {
		t.Fatalf("generic layer dispatch allocates %v times per call pair", n)
	}
}

// dispatchDense returns one forward+backward pass of a 4→4 dense layer at
// batch 4 through the engine's dispatch, over buffers allocated up front.
func dispatchDense[F Float]() func() {
	var l layer = &dense{in: Vec(4), out: 4}
	sc := new(scratch[F])
	p, dp := make([]F, l.paramCount()), make([]F, l.paramCount())
	x, y, dy, dx := make([]F, 16), make([]F, 16), make([]F, 16), make([]F, 16)
	return func() {
		forward(l, p, x, y, 4, sc)
		backward(l, p, x, y, dy, dx, dp, 4, sc)
	}
}

// TestEngine32GradientAllocFree pins the steady-state contract for the
// fp32 training path: after warm-up, a Gradient call performs no heap
// allocation (matching the float64 Engine's behavior relied on by the fl
// round loop).
func TestEngine32GradientAllocFree(t *testing.T) {
	net := NewBuilder(Shape{C: 1, H: 8, W: 8}).Conv2D(4, 3, 1, 1).ReLU().MaxPool2D(2).Dense(4).MustBuild()
	r := rng.New(7)
	params64 := net.InitParams(r)
	batch := 4
	x64 := randInput(r, batch*net.InShape().Size())
	labels := randLabels(r, batch, net.OutSize())
	params := make([]float32, len(params64))
	x := make([]float32, len(x64))
	vecmath.Narrow(params, params64)
	vecmath.Narrow(x, x64)
	e := NewEngine32(net, batch)
	grad := make([]float32, net.NumParams())
	e.Gradient(params, x, labels, grad) // warm-up: scratch + dacts
	if n := testing.AllocsPerRun(10, func() {
		e.Gradient(params, x, labels, grad)
	}); n != 0 {
		t.Fatalf("Engine[float32].Gradient allocates %v times per call after warm-up", n)
	}
}

// TestCNNGradientAllocFree holds the fmnist CNN's float64 gradient — the
// path through the vecmath table's pooling and bias entries, which are
// called through function values that escape analysis cannot see into —
// to no allocation after warm-up.
func TestCNNGradientAllocFree(t *testing.T) {
	net := CNN(Shape{C: 1, H: 8, W: 8}, 10)
	r := rng.New(11)
	params := net.InitParams(r)
	x := randInput(r, 24*net.InShape().Size())
	labels := randLabels(r, 24, net.OutSize())
	e := NewEngine(net, 24)
	grad := make([]float64, net.NumParams())
	e.Gradient(params, x, labels, grad)
	if n := testing.AllocsPerRun(10, func() { e.Gradient(params, x, labels, grad) }); n != 0 {
		t.Fatalf("CNN Engine.Gradient allocates %v times per call after warm-up", n)
	}
}

// TestModelZooGradientAllocFree extends the two tests above to the other
// model families at both precisions: after warm-up, Gradient on the adult
// MLP, ResNetLite and CharLSTM allocates nothing.
func TestModelZooGradientAllocFree(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *Network
	}{
		{"MLP", MLP(20, 2)},
		{"ResNetLite", ResNetLite(Shape{C: 3, H: 8, W: 8}, 10, 1)},
		{"CharLSTM", CharLSTM(8, 12, 16)},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(13)
			params := c.net.InitParams(r)
			x := randInput(r, 8*c.net.InShape().Size())
			labels := randLabels(r, 8, c.net.OutSize())
			gradientAllocs[float64](t, c.net, params, x, labels)
			gradientAllocs[float32](t, c.net, params, x, labels)
		})
	}
}

func gradientAllocs[F Float](t *testing.T, net *Network, params64, x64 []float64, labels []int) {
	params, x := convert[F](params64), convert[F](x64)
	e := newEngine[F](net, len(labels))
	grad := make([]F, net.NumParams())
	e.Gradient(params, x, labels, grad)
	if n := testing.AllocsPerRun(10, func() { e.Gradient(params, x, labels, grad) }); n != 0 {
		t.Errorf("Engine[%T].Gradient allocates %v times per call after warm-up", F(0), n)
	}
}
