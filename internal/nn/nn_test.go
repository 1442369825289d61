package nn

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

func TestShapeSize(t *testing.T) {
	tests := []struct {
		shape Shape
		want  int
	}{
		{Shape{C: 3, H: 8, W: 8}, 192},
		{Vec(10), 10},
		{Shape{C: 1, H: 1, W: 1}, 1},
	}
	for _, tt := range tests {
		if got := tt.shape.Size(); got != tt.want {
			t.Fatalf("%v.Size() = %d, want %d", tt.shape, got, tt.want)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*Network, error)
	}{
		{"no layers", func() (*Network, error) { return NewBuilder(Vec(4)).Build() }},
		{"bad dense width", func() (*Network, error) { return NewBuilder(Vec(4)).Dense(0).Build() }},
		{"bad input", func() (*Network, error) { return NewBuilder(Vec(0)).Dense(3).Build() }},
		{"conv too big", func() (*Network, error) {
			return NewBuilder(Shape{C: 1, H: 2, W: 2}).Conv2D(2, 5, 1, 0).Build()
		}},
		{"pool does not divide", func() (*Network, error) {
			return NewBuilder(Shape{C: 1, H: 5, W: 5}).MaxPool2D(2).Build()
		}},
		{"lstm shape mismatch", func() (*Network, error) {
			return NewBuilder(Vec(10)).LSTM(3, 4, 5).Build()
		}},
		{"error sticks", func() (*Network, error) {
			return NewBuilder(Vec(4)).Dense(-1).Dense(3).Build()
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build(); err == nil {
				t.Fatal("expected a build error")
			}
		})
	}
}

func TestParamLayout(t *testing.T) {
	net := NewBuilder(Vec(4)).Dense(3).ReLU().Dense(2).MustBuild()
	want := 4*3 + 3 + 0 + 3*2 + 2
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	if net.OutSize() != 2 {
		t.Fatalf("OutSize = %d, want 2", net.OutSize())
	}
	if net.NumLayers() != 3 {
		t.Fatalf("NumLayers = %d, want 3", net.NumLayers())
	}
}

func TestInitParamsDeterministic(t *testing.T) {
	net := MLP(10, 2)
	a := net.InitParams(rng.New(5))
	b := net.InitParams(rng.New(5))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("InitParams must be deterministic for a fixed seed")
		}
	}
	if vecmath.Norm2(a) == 0 {
		t.Fatal("InitParams produced all zeros")
	}
}

func TestNetworkString(t *testing.T) {
	net := CNN(Shape{C: 1, H: 8, W: 8}, 10)
	s := net.String()
	for _, frag := range []string{"conv2d", "maxpool2d", "dense", "relu"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	// All-zero logits over C classes give loss ln(C).
	classes := 4
	logits := make([]float64, 2*classes)
	labels := []int{0, 3}
	loss := SoftmaxCrossEntropy(logits, labels, classes, nil)
	if math.Abs(loss-math.Log(float64(classes))) > 1e-12 {
		t.Fatalf("loss = %v, want ln(%d) = %v", loss, classes, math.Log(float64(classes)))
	}
}

func TestSoftmaxCrossEntropyGradientSumsToZero(t *testing.T) {
	r := rng.New(3)
	classes, batch := 5, 7
	logits := randInput(r, batch*classes)
	labels := randLabels(r, batch, classes)
	dl := make([]float64, batch*classes)
	SoftmaxCrossEntropy(logits, labels, classes, dl)
	for s := 0; s < batch; s++ {
		row := dl[s*classes : (s+1)*classes]
		if math.Abs(vecmath.Sum(row)) > 1e-12 {
			t.Fatalf("per-sample gradient rows must sum to 0, got %v", vecmath.Sum(row))
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := []float64{1000, -1000, 0}
	labels := []int{0}
	dl := make([]float64, 3)
	loss := SoftmaxCrossEntropy(logits, labels, 3, dl)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v for extreme logits", loss)
	}
	if !vecmath.AllFinite(dl) {
		t.Fatalf("gradient not finite: %v", dl)
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax([]float64{1, 5, 3}); got != 1 {
		t.Fatalf("Argmax = %d, want 1", got)
	}
	if got := Argmax([]float64{-1}); got != 0 {
		t.Fatalf("Argmax = %d, want 0", got)
	}
}

func TestEnginePredictMatchesLogits(t *testing.T) {
	r := rng.New(21)
	net := MLP(6, 3)
	params := net.InitParams(r)
	eng := NewEngine(net, 8)
	x := randInput(r, 8*6)
	out := make([]int, 8)
	eng.Predict(params, x, 8, out)
	for _, p := range out {
		if p < 0 || p >= 3 {
			t.Fatalf("prediction %d out of range", p)
		}
	}
}

func TestEngineGradientIsDeterministic(t *testing.T) {
	r := rng.New(33)
	net := CNN(Shape{C: 1, H: 8, W: 8}, 10)
	params := net.InitParams(r)
	x := randInput(r, 4*64)
	labels := randLabels(r, 4, 10)
	g1 := make([]float64, net.NumParams())
	g2 := make([]float64, net.NumParams())
	eng := NewEngine(net, 4)
	l1 := eng.Gradient(params, x, labels, g1)
	l2 := eng.Gradient(params, x, labels, g2)
	if l1 != l2 {
		t.Fatalf("losses differ: %v vs %v", l1, l2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("gradients differ between identical calls")
		}
	}
}

func TestEnginesShareNetworkSafely(t *testing.T) {
	// Two engines over the same Network must not interfere.
	r := rng.New(44)
	net := MLP(5, 2)
	params := net.InitParams(r)
	x := randInput(r, 3*5)
	labels := randLabels(r, 3, 2)
	e1 := NewEngine(net, 3)
	e2 := NewEngine(net, 3)
	g1 := make([]float64, net.NumParams())
	g2 := make([]float64, net.NumParams())
	l1 := e1.Gradient(params, x, labels, g1)
	l2 := e2.Gradient(params, x, labels, g2)
	if l1 != l2 {
		t.Fatalf("engines disagree: %v vs %v", l1, l2)
	}
}

// TestTrainingReducesLoss is the substrate's end-to-end sanity check:
// plain SGD on a small separable problem must cut the loss dramatically.
func TestTrainingReducesLoss(t *testing.T) {
	r := rng.New(55)
	const (
		features = 8
		classes  = 3
		n        = 60
	)
	net := MLP(features, classes)
	params := net.InitParams(r)
	// Three Gaussian blobs.
	xs := make([]float64, n*features)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		for f := 0; f < features; f++ {
			center := 0.0
			if f == c {
				center = 3
			}
			xs[i*features+f] = r.Normal(center, 0.5)
		}
	}
	eng := NewEngine(net, n)
	grad := make([]float64, net.NumParams())
	initial := eng.Loss(params, xs, labels)
	for step := 0; step < 300; step++ {
		eng.Gradient(params, xs, labels, grad)
		vecmath.AXPY(-0.1, grad, params)
	}
	final := eng.Loss(params, xs, labels)
	if final > initial/4 {
		t.Fatalf("SGD failed to learn: loss %v -> %v", initial, final)
	}
	if acc := eng.Accuracy(params, xs, labels); acc < 0.9 {
		t.Fatalf("accuracy after training = %v, want >= 0.9", acc)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	net := MLP(4, 2)
	eng := NewEngine(net, 2)
	params := net.InitParams(rng.New(1))
	if got := eng.Accuracy(params, nil, nil); got != 0 {
		t.Fatalf("Accuracy on empty set = %v, want 0", got)
	}
}

func TestEnginePanicsOnBadBatch(t *testing.T) {
	net := MLP(4, 2)
	eng := NewEngine(net, 2)
	params := net.InitParams(rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized batch")
		}
	}()
	eng.Predict(params, make([]float64, 4*12), 3, make([]int, 3))
}

// TestEngineHoldsNoInputGradient pins that nothing input-sized is kept for
// the backward pass: the gradient with respect to the data has no reader,
// so after Gradient the engine owns no buffer of maxBatch × in.Size()
// elements — the first layer was handed a nil dx and skipped that product.
func TestEngineHoldsNoInputGradient(t *testing.T) {
	for name, net := range map[string]*Network{
		"CNN":        CNN(Shape{C: 1, H: 8, W: 8}, 10),
		"MLP":        MLP(14, 2),
		"ResNetLite": ResNetLite(Shape{C: 3, H: 8, W: 8}, 10, 1),
		"CharLSTM":   CharLSTM(8, 12, 16),
	} {
		const maxBatch = 5
		r := rng.New(19)
		eng := NewEngine(net, maxBatch)
		x := randInput(r, maxBatch*net.in.Size())
		eng.Gradient(net.InitParams(r), x, randLabels(r, maxBatch, net.classes), make([]float64, net.total))
		if eng.dacts[0] != nil {
			t.Fatalf("%s: engine allocated an input-gradient buffer of %d elements", name, len(eng.dacts[0]))
		}
		inputSized := maxBatch * net.in.Size()
		var walk func(where string, sc *scratch[float64])
		walk = func(where string, sc *scratch[float64]) {
			if cap(sc.floats) == inputSized || cap(sc.cols) == inputSized {
				t.Fatalf("%s: %s scratch holds an input-sized buffer (%d elements)", name, where, inputSized)
			}
			for _, c := range sc.children {
				walk(where+" child", c)
			}
		}
		for i := range net.layers {
			// acts[0] is the caller's x, not the engine's.
			for _, buf := range [][]float64{eng.acts[i+1], eng.dacts[i+1]} {
				if len(buf) == inputSized {
					t.Fatalf("%s: layer %d holds an input-sized buffer (%d elements)", name, i, inputSized)
				}
			}
			walk(net.layers[i].name(), &eng.scratch[i])
		}
	}
}

// TestAccuracyReusesBuffers pins that evaluation runs out of buffers the
// engine owns: after the first call a sequential pass allocates nothing,
// and a sharded pass allocates only what starting its goroutines costs —
// independent of the batch size and of how many batches there are.
func TestAccuracyReusesBuffers(t *testing.T) {
	net := MLP(6, 3)
	r := rng.New(43)
	params := net.InitParams(r)
	perWorker := func(maxBatch, total, workers int) float64 {
		xs := randInput(r, total*6)
		labels := randLabels(r, total, 3)
		eng := NewEngine(net, maxBatch)
		eng.accuracyWorkers(params, xs, labels, workers) // first call sizes the buffers
		return testing.AllocsPerRun(20, func() { eng.accuracyWorkers(params, xs, labels, workers) })
	}
	if n := perWorker(8, 103, 1); n != 0 {
		t.Fatalf("sequential Accuracy allocates %v times per call after the first", n)
	}
	small, large := perWorker(8, 103, 3), perWorker(64, 1030, 3)
	if small != large {
		t.Fatalf("sharded Accuracy allocations depend on the data: %v at batch 8 × 13 batches, %v at batch 64 × 17", small, large)
	}
	if small > 2*3 {
		t.Fatalf("sharded Accuracy allocates %v times per call with 3 workers, want at most goroutine start-up", small)
	}
}
