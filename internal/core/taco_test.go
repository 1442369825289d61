package core

import (
	"math"
	"repro/internal/adversary"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/vecmath"
)

func tacoSetup(t *testing.T, clients int) (*nn.Network, []*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test, err := dataset.Standard("adult", dataset.ScaleSmall, 9)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, clients, 0.5, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataset.Model("adult")
	if err != nil {
		t.Fatal(err)
	}
	return net, part.Shards(train), test
}

func tacoConfig() fl.Config {
	return fl.Config{
		Rounds:     8,
		LocalSteps: 5,
		BatchSize:  16,
		LocalLR:    0.03,
		Seed:       21,
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults(100, 50)
	if cfg.Gamma != 0.01 {
		t.Fatalf("default gamma = %v, want 1/K = 0.01", cfg.Gamma)
	}
	if cfg.Kappa != 0.6 {
		t.Fatalf("default kappa = %v, want 0.6", cfg.Kappa)
	}
	if cfg.MaxStrikes != 10 {
		t.Fatalf("default strikes = %v, want T/5 = 10", cfg.MaxStrikes)
	}
}

func TestConfigExplicitValuesKept(t *testing.T) {
	cfg := Config{Gamma: 0.2, Kappa: 0.9, MaxStrikes: 3}.withDefaults(10, 50)
	if cfg.Gamma != 0.2 || cfg.Kappa != 0.9 || cfg.MaxStrikes != 3 {
		t.Fatalf("explicit values overwritten: %+v", cfg)
	}
}

func TestTACOTrainsAndTracksAlpha(t *testing.T) {
	net, shards, test := tacoSetup(t, 6)
	alg := New(Recommended())
	res, err := fl.Run(tacoConfig(), alg, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Diverged {
		t.Fatal("TACO diverged on the easy setup")
	}
	if res.Run.FinalAccuracy() < 0.55 {
		t.Fatalf("final accuracy %.4f too low", res.Run.FinalAccuracy())
	}
	alphas := alg.Alphas()
	if len(alphas) != 6 {
		t.Fatalf("alphas length %d, want 6", len(alphas))
	}
	for i, a := range alphas {
		if a < 0 || a > 1 {
			t.Fatalf("alpha[%d] = %v outside [0,1]", i, a)
		}
	}
	// Every client trains every round, so the stored Eq. (14) mean is the
	// mean of all six coefficients.
	if m := alg.MeanAlpha(); math.Abs(m-vecmath.Mean(alphas)) > 1e-12 {
		t.Fatalf("mean alpha %v, want the participants' mean %v", m, vecmath.Mean(alphas))
	}
	if m := alg.MeanAlpha(); m <= 0 || m >= 1 {
		t.Fatalf("mean alpha %v out of (0,1)", m)
	}
}

func TestTACOFinalModelIsZ(t *testing.T) {
	net, shards, test := tacoSetup(t, 4)
	alg := New(Recommended())
	res, err := fl.Run(tacoConfig(), alg, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	// z_T = w_T + (1−ᾱ)(w_T − w_{T−1}) differs from w_T whenever the last
	// step moved and ᾱ < 1.
	w := make([]float64, net.NumParams())
	z := alg.FinalModel(w)
	if &z[0] == &w[0] {
		t.Fatal("FinalModel returned w, want the z sequence")
	}
	if !vecmath.AllFinite(res.FinalParams) {
		t.Fatal("final z not finite")
	}
}

func TestTACOFreshInstanceFinalModelIdentity(t *testing.T) {
	alg := New(Config{})
	w := []float64{1, 2, 3}
	if got := alg.FinalModel(w); &got[0] != &w[0] {
		t.Fatal("before training, FinalModel must be the identity")
	}
}

func TestTACOFreeloaderAlphasHigh(t *testing.T) {
	net, shards, test := tacoSetup(t, 8)
	cfg := tacoConfig()
	cfg.Rounds = 10
	cfg.Adversaries = []adversary.Spec{adversary.Freeloaders([]int{6, 7})}
	alg := New(Recommended())
	if _, err := fl.Run(cfg, alg, net, shards, test); err != nil {
		t.Fatal(err)
	}
	alphas := alg.Alphas()
	honest, free := 0.0, 0.0
	for i, a := range alphas {
		if i >= 6 {
			free += a / 2
		} else {
			honest += a / 6
		}
	}
	if free <= honest {
		t.Fatalf("freeloader mean alpha %.3f not above honest %.3f (Table II shape)", free, honest)
	}
}

func TestTACOExpelsFreeloaders(t *testing.T) {
	net, shards, test := tacoSetup(t, 8)
	cfg := tacoConfig()
	cfg.Rounds = 14
	cfg.Adversaries = []adversary.Spec{adversary.Freeloaders([]int{6, 7})}
	tcfg := Recommended()
	tcfg.DetectFreeloaders = true
	tcfg.Kappa = 0.5
	tcfg.MaxStrikes = 3
	alg := New(tcfg)
	res, err := fl.Run(cfg, alg, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{6, 7} {
		if _, ok := res.Expelled[id]; !ok {
			t.Fatalf("freeloader %d not expelled; expelled set: %v, strikes: %v", id, res.Expelled, alg.Strikes())
		}
	}
	for id := range res.Expelled {
		if id < 6 {
			t.Fatalf("honest client %d wrongly expelled", id)
		}
	}
}

func TestTACOKappaOneDetectsNothing(t *testing.T) {
	net, shards, test := tacoSetup(t, 8)
	cfg := tacoConfig()
	cfg.Adversaries = []adversary.Spec{adversary.Freeloaders([]int{7})}
	tcfg := Recommended()
	tcfg.DetectFreeloaders = true
	tcfg.Kappa = 1.01 // α never exceeds 1, Table VIII's κ=1.0 row
	tcfg.MaxStrikes = 1
	res, err := fl.Run(cfg, New(tcfg), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expelled) != 0 {
		t.Fatalf("κ>1 must detect nothing, expelled %v", res.Expelled)
	}
}

func TestTACOAblationVariantsRun(t *testing.T) {
	net, shards, test := tacoSetup(t, 5)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no corr", Config{DisableTailoredCorrection: true}},
		{"no agg", Config{DisableTailoredAggregation: true}},
		{"neither", Config{DisableTailoredCorrection: true, DisableTailoredAggregation: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := fl.Run(tacoConfig(), New(tc.cfg), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if res.Run.FinalAccuracy() < 0.5 {
				t.Fatalf("accuracy %.4f too low", res.Run.FinalAccuracy())
			}
		})
	}
}

// TestLemma1EMAStructure validates Lemma 1's qualitative claim on the
// implementation: with uniform alphas the aggregated ∆^{t+1} equals the
// mean local gradient plus (1−α)∆^t. We freeze alphas by disabling
// smoothing and using identical client deltas (so Eq. 7 gives uniform α),
// then check the recursion.
func TestLemma1EMAStructure(t *testing.T) {
	const (
		n   = 4
		dim = 6
		k   = 2
		lr  = 0.5
	)
	alg := New(Config{Gamma: 1.0 / k})
	env := &fl.Env{
		NumClients: n,
		NumParams:  dim,
		DataSizes:  []int{1, 1, 1, 1},
		Cfg:        fl.Config{Rounds: 4, LocalSteps: k, BatchSize: 1, LocalLR: lr, Seed: 1},
	}
	alg.Setup(env)

	mkUpdates := func(base []float64) []fl.Update {
		updates := make([]fl.Update, n)
		for i := range updates {
			updates[i] = fl.Update{Client: i, Delta: vecmath.Clone(base), NumSamples: 1}
		}
		return updates
	}
	w := make([]float64, dim)
	wPrev := make([]float64, dim)
	server := &fl.ServerCtx{W: w, WPrev: wPrev, Env: env, Active: make([]bool, n)}

	// Round 0: identical deltas d0 ⇒ ∆^1 = d0/(K·ηl).
	d0 := []float64{1, 0, 0, 0, 0, 0}
	alg.Aggregate(server, mkUpdates(d0))
	corr1 := alg.Corr()
	want := 1.0 / (k * lr)
	if math.Abs(corr1[0]-want) > 1e-9 {
		t.Fatalf("∆^1[0] = %v, want %v", corr1[0], want)
	}

	// Round 1: identical deltas d1 ⇒ uniform α = 1−1/N, and Lemma 1 says
	// ∆^2 = d1/(K·ηl) — the EMA contribution lives inside d1 in a real
	// run; with synthetic deltas the aggregation itself must be the plain
	// weighted mean, which uniform α reduces to exactly.
	d1 := []float64{0, 2, 0, 0, 0, 0}
	alg.Aggregate(server, mkUpdates(d1))
	corr2 := alg.Corr()
	if math.Abs(corr2[1]-2.0/(k*lr)) > 1e-9 || math.Abs(corr2[0]) > 1e-9 {
		t.Fatalf("∆^2 = %v, want plain mean of identical deltas", corr2[:2])
	}
}

func TestHybridsTrain(t *testing.T) {
	net, shards, test := tacoSetup(t, 5)
	for _, alg := range []fl.Algorithm{NewFedProxTACO(0.1), NewScaffoldTACO()} {
		t.Run(alg.Name(), func(t *testing.T) {
			res, err := fl.Run(tacoConfig(), alg, net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if res.Run.Diverged {
				t.Fatal("hybrid diverged")
			}
			if res.Run.FinalAccuracy() < 0.55 {
				t.Fatalf("accuracy %.4f too low", res.Run.FinalAccuracy())
			}
			if alg.MeanAlpha() <= 0 {
				t.Fatal("hybrid did not track alphas")
			}
		})
	}
}

// jitter measures mean absolute round-to-round accuracy change over the
// second half of a run — the instability statistic used in DESIGN.md §5.
func jitter(rounds []float64) float64 {
	if len(rounds) < 2 {
		return 0
	}
	var total float64
	for i := 1; i < len(rounds); i++ {
		d := rounds[i] - rounds[i-1]
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total / float64(len(rounds)-1)
}

// TestStabilizersReduceRinging is the ablation for this reproduction's two
// deviations (aggregation-weight floor + α smoothing): on the adult
// profile where the paper-exact rule rings (DESIGN.md §5), the Recommended
// configuration must cut the late-training accuracy jitter substantially.
func TestStabilizersReduceRinging(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two 20-round runs")
	}
	train, test, err := dataset.Standard("adult", dataset.ScaleSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, 20, 0.5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataset.Model("adult")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{Rounds: 24, LocalSteps: 10, BatchSize: 24, LocalLR: 0.05, Seed: 7}
	shards := part.Shards(train)

	measure := func(tcfg Config) float64 {
		res, err := fl.Run(cfg, New(tcfg), net, shards, test)
		if err != nil {
			t.Fatal(err)
		}
		accs := make([]float64, 0, len(res.Run.Rounds))
		for _, rec := range res.Run.Rounds[len(res.Run.Rounds)/2:] {
			accs = append(accs, rec.Accuracy)
		}
		return jitter(accs)
	}
	paperExact := measure(Config{})
	stabilized := measure(Recommended())
	if stabilized >= paperExact {
		t.Fatalf("stabilizers did not reduce ringing: paper-exact jitter %.4f, stabilized %.4f",
			paperExact, stabilized)
	}
}
