package dataset

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

func TestStandardNamesAllBuild(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			train, test, err := Standard(name, ScaleSmall, 1)
			if err != nil {
				t.Fatalf("Standard(%q): %v", name, err)
			}
			if err := train.Validate(); err != nil {
				t.Fatalf("train invalid: %v", err)
			}
			if err := test.Validate(); err != nil {
				t.Fatalf("test invalid: %v", err)
			}
			if train.Len() == 0 || test.Len() == 0 {
				t.Fatal("empty split")
			}
			if train.In != test.In || train.Classes != test.Classes {
				t.Fatal("train/test geometry mismatch")
			}
			model, err := Model(name)
			if err != nil {
				t.Fatalf("Model(%q): %v", name, err)
			}
			if model.InShape() != train.In {
				t.Fatalf("model input %v != dataset input %v", model.InShape(), train.In)
			}
			if model.OutSize() != train.Classes {
				t.Fatalf("model classes %d != dataset classes %d", model.OutSize(), train.Classes)
			}
		})
	}
}

func TestStandardUnknownName(t *testing.T) {
	if _, _, err := Standard("nope", ScaleSmall, 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if _, err := Model("nope"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestStandardDeterministic(t *testing.T) {
	a, _, err := Standard("mnist", ScaleSmall, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Standard("mnist", ScaleSmall, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("features differ for identical seeds")
		}
	}
}

func TestStandardSeedsDiffer(t *testing.T) {
	a, _, err := Standard("mnist", ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Standard("mnist", ScaleSmall, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.X {
		if a.X[i] != b.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestScaleFullIsLarger(t *testing.T) {
	small, _, err := Standard("adult", ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Standard("adult", ScaleFull, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() <= small.Len() {
		t.Fatalf("full scale %d not larger than small %d", full.Len(), small.Len())
	}
}

func TestLabelsRoughlyBalancedImages(t *testing.T) {
	train, _, err := Standard("mnist", ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := train.LabelCounts()
	want := train.Len() / train.Classes
	for c, n := range counts {
		if n < want/2 || n > want*2 {
			t.Fatalf("class %d has %d samples, want ≈%d", c, n, want)
		}
	}
}

func TestAdultImbalance(t *testing.T) {
	train, _, err := Standard("adult", ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := train.LabelCounts()
	frac1 := float64(counts[1]) / float64(train.Len())
	if frac1 < 0.1 || frac1 > 0.45 {
		t.Fatalf("positive-class fraction = %v, want minority class like adult", frac1)
	}
}

func TestSubsetAndGather(t *testing.T) {
	train, _, err := Standard("adult", ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{5, 0, 9}
	sub := train.Subset(idx)
	if sub.Len() != 3 {
		t.Fatalf("Subset length %d, want 3", sub.Len())
	}
	size := train.In.Size()
	x := make([]float64, 3*size)
	y := make([]int, 3)
	train.Gather(idx, x, y)
	for i, id := range idx {
		if y[i] != train.Y[id] {
			t.Fatalf("Gather label %d mismatch", i)
		}
		for j := 0; j < size; j++ {
			if x[i*size+j] != train.X[id*size+j] {
				t.Fatalf("Gather features mismatch at sample %d", i)
			}
			if sub.X[i*size+j] != train.X[id*size+j] {
				t.Fatalf("Subset features mismatch at sample %d", i)
			}
		}
	}
}

func TestSubsetPreservesGroups(t *testing.T) {
	train, _, err := Standard("shakespeare", ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	if train.Groups == nil {
		t.Fatal("shakespeare must carry speaker groups")
	}
	sub := train.Subset([]int{0, 10, 20})
	if sub.Groups == nil || len(sub.Groups) != 3 {
		t.Fatal("Subset lost group metadata")
	}
}

func TestSamplerFillsBatches(t *testing.T) {
	train, _, err := Standard("adult", ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(train, rng.New(9))
	size := train.In.Size()
	x := make([]float64, 8*size)
	y := make([]int, 8)
	s.Batch(x, y)
	for _, label := range y {
		if label < 0 || label >= train.Classes {
			t.Fatalf("sampled label %d out of range", label)
		}
	}
	// Two consecutive batches should differ with overwhelming probability.
	x2 := make([]float64, 8*size)
	y2 := make([]int, 8)
	s.Batch(x2, y2)
	sameAll := true
	for i := range y {
		if y[i] != y2[i] {
			sameAll = false
			break
		}
	}
	if sameAll {
		for i := range x {
			if x[i] != x2[i] {
				sameAll = false
				break
			}
		}
	}
	if sameAll {
		t.Fatal("two batches were identical; sampler is not random")
	}
}

func TestCharSeqOneHot(t *testing.T) {
	train, _, err := Standard("shakespeare", ScaleSmall, 2)
	if err != nil {
		t.Fatal(err)
	}
	const vocab = 12
	steps := train.In.Size() / vocab
	row := train.X[:train.In.Size()]
	for tt := 0; tt < steps; tt++ {
		var ones int
		for v := 0; v < vocab; v++ {
			switch row[tt*vocab+v] {
			case 1:
				ones++
			case 0:
			default:
				t.Fatalf("non-binary value in one-hot encoding: %v", row[tt*vocab+v])
			}
		}
		if ones != 1 {
			t.Fatalf("step %d has %d ones, want exactly 1", tt, ones)
		}
	}
}

func TestCharSeqWalksShareChains(t *testing.T) {
	cfg := CharSeqConfig{Name: "x", Vocab: 10, Steps: 5, Speakers: 2, N: 200, Branch: 3, SpeakerMix: 0.3}
	a, err := CharSeq(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Walk = 1
	b, err := CharSeq(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Different walks must produce different text...
	same := true
	for i := range a.X {
		if a.X[i] != b.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different walks produced identical text")
	}
}

// trainCentrally runs plain centralized SGD and returns test accuracy; the
// learnability gate for every generator.
// TestSamplerBatchInPlace pins Batch's in-place gather to the plain
// form — indices drawn from a twin stream into their own buffer, then
// gathered — batch after batch, over a slab from NewSamplers, and checks
// that a batch allocates nothing.
func TestSamplerBatchInPlace(t *testing.T) {
	train, _, err := Standard("adult", ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	size := train.In.Size()
	shards := []*Dataset{train.Subset([]int{4, 8, 15, 16, 23, 42}), train}
	streams := rng.New(21).DeriveN("sampler", len(shards))
	twins := rng.New(21).DeriveN("sampler", len(shards))
	slab := NewSamplers(shards, streams)
	for i := range slab {
		for _, batch := range []int{1, 7, 8, 32} {
			x, y := make([]float64, batch*size), make([]int, batch)
			wantX, wantY, idx := make([]float64, batch*size), make([]int, batch), make([]int, batch)
			slab[i].Batch(x, y)
			for j := range idx {
				idx[j] = twins[i].IntN(shards[i].Len())
			}
			shards[i].Gather(idx, wantX, wantY)
			for j := range y {
				if y[j] != wantY[j] {
					t.Fatalf("shard %d batch %d: y[%d] = %d, plain gather gives %d", i, batch, j, y[j], wantY[j])
				}
			}
			for j := range x {
				if x[j] != wantX[j] {
					t.Fatalf("shard %d batch %d: x[%d] = %v, plain gather gives %v", i, batch, j, x[j], wantX[j])
				}
			}
		}
	}
	x, y := make([]float64, 32*size), make([]int, 32)
	if a := testing.AllocsPerRun(100, func() { slab[1].Batch(x, y) }); a != 0 {
		t.Fatalf("Batch allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { _ = NewSamplers(shards, streams) }); a != 1 {
		t.Fatalf("NewSamplers allocates %v times, want 1 (the slab)", a)
	}
}

func trainCentrally(t *testing.T, name string, steps int, lr float64) float64 {
	t.Helper()
	train, test, err := Standard(name, ScaleSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Model(name)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	params := model.InitParams(r)
	const batch = 32
	eng := nn.NewEngine(model, max(batch, 64))
	sampler := NewSampler(train, r)
	x := make([]float64, batch*train.In.Size())
	y := make([]int, batch)
	grad := make([]float64, model.NumParams())
	for s := 0; s < steps; s++ {
		sampler.Batch(x, y)
		eng.Gradient(params, x, y, grad)
		for i := range params {
			params[i] -= lr * grad[i]
		}
	}
	return eng.Accuracy(params, test.X, test.Y)
}

func TestLearnabilityMNIST(t *testing.T) {
	if acc := trainCentrally(t, "mnist", 400, 0.1); acc < 0.6 {
		t.Fatalf("mnist accuracy = %v, want >= 0.6", acc)
	}
}

func TestLearnabilityAdult(t *testing.T) {
	if acc := trainCentrally(t, "adult", 400, 0.1); acc < 0.7 {
		t.Fatalf("adult accuracy = %v, want >= 0.7", acc)
	}
}

func TestLearnabilityShakespeare(t *testing.T) {
	if testing.Short() {
		t.Skip("LSTM training is slow")
	}
	if acc := trainCentrally(t, "shakespeare", 800, 2.0); acc < 0.3 {
		t.Fatalf("shakespeare accuracy = %v, want >= 0.3", acc)
	}
}

func TestHardnessOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three models")
	}
	// The paper's relative hardness must hold: mnist easier than fmnist,
	// fmnist easier than cifar10 (after identical budgets).
	mnist := trainCentrally(t, "mnist", 300, 0.1)
	fmnist := trainCentrally(t, "fmnist", 300, 0.1)
	cifar := trainCentrally(t, "cifar10", 300, 0.1)
	if mnist <= fmnist {
		t.Fatalf("mnist (%v) should be easier than fmnist (%v)", mnist, fmnist)
	}
	if fmnist <= cifar {
		t.Fatalf("fmnist (%v) should be easier than cifar10 (%v)", fmnist, cifar)
	}
}
