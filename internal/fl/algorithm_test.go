package fl

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/vecmath"
)

func TestBaseDefaults(t *testing.T) {
	var b Base
	w := []float64{1, 2, 3}
	out := make([]float64, 3)
	b.LocalInit(0, 0, w, out)
	for i := range w {
		if out[i] != w[i] {
			t.Fatal("Base.LocalInit must copy w")
		}
	}
	if got := b.FinalModel(w); &got[0] != &w[0] {
		t.Fatal("Base.FinalModel must be the identity")
	}
	if b.MeanAlpha() != 0 {
		t.Fatal("Base.MeanAlpha must be 0")
	}
	if c := b.Costs(); c.GradEvalsPerStep != 1 || c.AuxPerStep != 0 {
		t.Fatalf("Base.Costs = %+v, want the plain profile", c)
	}
	// No-op hooks must not panic.
	b.Setup(nil)
	b.BeginLocal(0, 0, nil)
	b.GradAdjust(nil)
	b.EndLocal(0, 0, nil)
}

func TestServerCtxExpel(t *testing.T) {
	s := &ServerCtx{}
	s.Expel(3)
	s.Expel(5)
	if len(s.expelled) != 2 || s.expelled[0] != 3 || s.expelled[1] != 5 {
		t.Fatalf("expelled = %v", s.expelled)
	}
}

func TestGlobalLRDefault(t *testing.T) {
	env := &Env{Cfg: Config{LocalSteps: 10, LocalLR: 0.05}}
	s := &ServerCtx{Env: env}
	if got := s.GlobalLR(); got != 0.5 {
		t.Fatalf("GlobalLR = %v, want K·ηl = 0.5", got)
	}
	env.Cfg.GlobalLR = 2
	if got := s.GlobalLR(); got != 2 {
		t.Fatalf("GlobalLR = %v, want explicit 2", got)
	}
}

func TestFedAvgStepMovesByMeanDelta(t *testing.T) {
	env := &Env{Cfg: Config{LocalSteps: 2, LocalLR: 0.5, Rounds: 1, BatchSize: 1}}
	w := []float64{10, 10}
	s := &ServerCtx{W: w, Env: env}
	updates := []Update{
		{Client: 0, Delta: []float64{1, 0}, NumSamples: 1},
		{Client: 1, Delta: []float64{3, 0}, NumSamples: 1},
	}
	FedAvgStep(s, updates)
	// ηg = K·ηl, so the model moves by exactly the mean delta: −2 in x.
	if w[0] != 8 || w[1] != 10 {
		t.Fatalf("w after FedAvgStep = %v, want [8 10]", w)
	}
}

func TestSortUpdatesByClient(t *testing.T) {
	updates := []Update{{Client: 2}, {Client: 0}, {Client: 1}}
	SortUpdatesByClient(updates)
	for i, u := range updates {
		if u.Client != i {
			t.Fatalf("updates not sorted: %v", updates)
		}
	}
}

// TestAdversarySpecNormalization: a freeloader spec built by
// adversary.Freeloaders from unsorted, repeated ids runs bit-identically
// to the hand-written sorted spec, alone and ahead of a second spec.
func TestAdversarySpecNormalization(t *testing.T) {
	net, shards, test := goldenSetup(t, 6, 4)
	base := Config{Rounds: 4, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 11}
	signflip := adversary.Spec{Kind: adversary.KindSignFlip, Clients: []int{0}}
	for _, extra := range [][]adversary.Spec{nil, {signflip}} {
		helper, explicit := base, base
		helper.Adversaries = append([]adversary.Spec{adversary.Freeloaders([]int{5, 2, 5})}, extra...)
		explicit.Adversaries = append([]adversary.Spec{{Kind: adversary.KindFreeloader, Clients: []int{2, 5}}}, extra...)
		resH, err := Run(helper, goldenFedAvg{}, net, shards, test)
		if err != nil {
			t.Fatal(err)
		}
		resE, err := Run(explicit, goldenFedAvg{}, net, shards, test)
		if err != nil {
			t.Fatal(err)
		}
		if hh, eh := paramsHash(resH.FinalParams), paramsHash(resE.FinalParams); hh != eh {
			t.Fatalf("helper and explicit spec diverge (%d extra specs): %016x vs %016x", len(extra), hh, eh)
		}
	}
}

func TestMeanLossSkipsFreeloaders(t *testing.T) {
	updates := []Update{
		{TrainLoss: 2},
		{TrainLoss: math.NaN()}, // freeloaders report NaN ("no loss")
		{TrainLoss: 4},
	}
	if got := meanLoss(updates); got != 3 {
		t.Fatalf("meanLoss = %v, want 3", got)
	}
	// An honest client whose true mean loss is exactly 0 still counts
	// (the old 0 sentinel silently excluded it).
	updates = []Update{
		{TrainLoss: 0},
		{TrainLoss: math.NaN()},
		{TrainLoss: 4},
	}
	if got := meanLoss(updates); got != 2 {
		t.Fatalf("meanLoss with honest zero loss = %v, want 2", got)
	}
	if got := meanLoss(nil); got != 0 {
		t.Fatalf("meanLoss(nil) = %v", got)
	}
	if got := meanLoss([]Update{{TrainLoss: math.NaN()}}); got != 0 {
		t.Fatalf("meanLoss of freeloaders only = %v, want 0", got)
	}
}

func TestAggregationWeightsSumToOne(t *testing.T) {
	updates := []Update{
		{NumSamples: 7}, {NumSamples: 13}, {NumSamples: 5},
	}
	for _, byData := range []bool{false, true} {
		w := AggregationWeights(updates, byData)
		if s := vecmath.Sum(w); s < 0.999 || s > 1.001 {
			t.Fatalf("weights sum to %v (byData=%v)", s, byData)
		}
	}
}
