package fl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// mustStack parses a stack spec or fails the test.
func mustStack(t testing.TB, s string) aggstack.StackSpec {
	t.Helper()
	spec, err := aggstack.ParseStack(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// mustOpt parses a server-optimizer spec or fails the test.
func mustOpt(t testing.TB, s string) aggstack.OptSpec {
	t.Helper()
	spec, err := aggstack.ParseServerOpt(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// stackedConfig is the stacked tests' base: the full zeroing|clip pipeline
// with FedAdam on top of the policy's required knobs.
func stackedConfig(t *testing.T, policy AggregationPolicy, seed uint64, gradFlops int64) Config {
	t.Helper()
	cfg := Config{
		Rounds:     6,
		LocalSteps: 3,
		BatchSize:  8,
		LocalLR:    0.05,
		Seed:       seed,
		Policy:     policy,
		AggStack:   mustStack(t, "zeroing|clip"),
		ServerOpt:  mustOpt(t, "adam:0.1"),
	}
	switch policy {
	case PolicyDeadline:
		cfg.RoundDeadlineSec = 10 * simclock.RoundSeconds(gradFlops, cfg.LocalSteps, simclock.Plain())
	case PolicyAsync:
		cfg.AsyncBuffer = 3
	}
	return cfg
}

// TestWrapStackZeroConfigIsNoWrap pins the identity contract at its root:
// a zero-valued AggStack/ServerOpt must return the algorithm unchanged —
// not an empty wrapper — so every unstacked run is structurally untouched.
func TestWrapStackZeroConfigIsNoWrap(t *testing.T) {
	inner := goldenFedAvg{}
	cfg := Config{}
	got, err := wrapStack(inner, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != Algorithm(inner) {
		t.Fatalf("zero-config wrapStack returned %T, want the inner algorithm unchanged", got)
	}
	cfg.AggStack = mustStack(t, "none")
	if got, err = wrapStack(inner, &cfg); err != nil || got != Algorithm(inner) {
		t.Fatalf(`"none" stack wrapped: %T, %v`, got, err)
	}
}

// TestFedSGDUnitLRMatchesBareRun pins the optimizer identity law at the
// engine level: ServerOpt fedsgd:1 wraps the rule but must reproduce the
// bare run bit-identically — FinalParams and every deterministic round
// field — because a unit-LR FedSGD server step is the vanilla apply.
func TestFedSGDUnitLRMatchesBareRun(t *testing.T) {
	net, shards, test := goldenSetup(t, 6, 4)
	cfg := Config{Rounds: 5, LocalSteps: 4, BatchSize: 16, LocalLR: 0.05, Seed: 11}
	want, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ServerOpt = mustOpt(t, "fedsgd:1")
	got, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if wh, gh := paramsHash(want.FinalParams), paramsHash(got.FinalParams); wh != gh {
		t.Fatalf("FinalParams hash mismatch: bare %016x, fedsgd:1 %016x", wh, gh)
	}
	if wn, gn := want.Run.Algorithm, got.Run.Algorithm; wn == gn {
		t.Fatalf("wrapped run kept the bare name %q — wrap did not engage", gn)
	}
	if len(want.Run.Rounds) != len(got.Run.Rounds) {
		t.Fatalf("round count: bare %d, wrapped %d", len(want.Run.Rounds), len(got.Run.Rounds))
	}
	for i := range want.Run.Rounds {
		w, g := want.Run.Rounds[i], got.Run.Rounds[i]
		w.SlowestMeasuredSec, g.SlowestMeasuredSec = 0, 0
		w.CumMeasuredSec, g.CumMeasuredSec = 0, 0
		if w != g {
			t.Fatalf("round %d record mismatch:\nbare    %+v\nwrapped %+v", i, w, g)
		}
	}
}

// TestStackedP1vsP8BitIdentity extends the parallelism-independence
// contract to the full stack: zeroing|clip + FedAdam over FedAvg must be
// bit-identical across slot counts under every policy and multiple seeds.
// The stages consume update norms in client order and the optimizer is a
// pure function of the aggregate, so no parallelism leaks in.
func TestStackedP1vsP8BitIdentity(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	for _, policy := range []AggregationPolicy{PolicySync, PolicyDeadline, PolicyAsync} {
		for _, seed := range []uint64{11, 29} {
			t.Run(fmt.Sprintf("%v-seed%d", policy, seed), func(t *testing.T) {
				cfg := stackedConfig(t, policy, seed, net.GradFlops(8))
				cfgA := cfg
				cfgA.Parallelism = 1
				cfgB := cfg
				cfgB.Parallelism = 8
				resA, err := Run(cfgA, goldenFedAvg{}, net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				resB, err := Run(cfgB, goldenFedAvg{}, net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				if ha, hb := paramsHash(resA.FinalParams), paramsHash(resB.FinalParams); ha != hb {
					t.Fatalf("FinalParams differ across slot counts: %016x vs %016x", ha, hb)
				}
				if la, lb := len(resA.Run.Rounds), len(resB.Run.Rounds); la != lb {
					t.Fatalf("round count differs across slot counts: %d vs %d", la, lb)
				}
			})
		}
	}
}

// normProbe is FedAvg that records the largest honest update norm it
// aggregates, calibrating the fixed zeroing bound in the suppression test
// below without hard-coding dataset-dependent magnitudes.
type normProbe struct {
	goldenFedAvg
	maxNorm float64
}

func (a *normProbe) Aggregate(s *ServerCtx, updates []Update) {
	for i := range updates {
		if n := updates[i].Norm(); n > a.maxNorm {
			a.maxNorm = n
		}
	}
	a.goldenFedAvg.Aggregate(s, updates)
}

// TestZeroingSuppressionWeightMetrics is the weight-remap regression: when
// zeroing drops a corrupt update before the inner rule sees it, the
// honest/corrupt weight-mass metrics must credit the suppression (corrupt
// mass 0, honest mass intact) instead of being skipped on the
// full-vs-survivor length mismatch — the bug this PR's re-map fixes. The
// zeroing bound is calibrated from a probe run's honest norms: honest
// updates clear it by 5x, the scaled corrupt update exceeds it by orders
// of magnitude, so exactly one update is zeroed every round.
func TestZeroingSuppressionWeightMetrics(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	cfg := Config{Rounds: 6, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 11}
	probe := &normProbe{}
	if _, err := Run(cfg, probe, net, shards, test); err != nil {
		t.Fatal(err)
	}
	if probe.maxNorm <= 0 {
		t.Fatalf("probe recorded no update norms")
	}

	const corrupt = 2
	cfg.Adversaries = []adversary.Spec{{Kind: adversary.KindScale, Clients: []int{corrupt}, Scale: 1e6}}
	cfg.AggStack = aggstack.StackSpec{Stages: []aggstack.StageSpec{{Kind: aggstack.StageZeroing, Norm: 5 * probe.maxNorm}}}
	res, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Run.TotalZeroedUpdates(); got != cfg.Rounds {
		t.Fatalf("TotalZeroedUpdates = %d, want %d (one corrupt drop per round)", got, cfg.Rounds)
	}
	for i, rec := range res.Run.Rounds {
		if rec.Outcomes[metrics.Zeroed] != 1 {
			t.Fatalf("round %d: %d updates zeroed, want 1", i, rec.Outcomes[metrics.Zeroed])
		}
		if rec.CorruptWeight != 0 {
			t.Fatalf("round %d: CorruptWeight = %v, want 0 (update was zeroed)", i, rec.CorruptWeight)
		}
		if rec.HonestWeight <= 0 {
			t.Fatalf("round %d: HonestWeight = %v, want > 0 (re-mapped report missing)", i, rec.HonestWeight)
		}
	}
	if res.CumWeights == nil {
		t.Fatal("adversarial run returned no cumulative weights")
	}
	if w := res.CumWeights[corrupt]; w != 0 {
		t.Fatalf("corrupt client accumulated weight %v, want 0", w)
	}
	for id, w := range res.CumWeights {
		if id != corrupt && w <= 0 {
			t.Fatalf("honest client %d accumulated weight %v, want > 0", id, w)
		}
	}
}

// stackedCapture retains checkpoints for the white-box resume test.
type stackedCapture struct {
	rounds []int
	blobs  [][]byte
}

func (c *stackedCapture) hook() func(int, []byte) {
	return func(round int, data []byte) {
		c.rounds = append(c.rounds, round)
		c.blobs = append(c.blobs, append([]byte(nil), data...))
	}
}

func (c *stackedCapture) at(round int) []byte {
	for i, r := range c.rounds {
		if r == round {
			return c.blobs[i]
		}
	}
	return nil
}

// TestStackedCheckpointResumeBitIdentical pins the wrapper's checkpoint
// state: the adaptive stage estimates and the optimizer moments (step, m,
// v) must survive a checkpoint so the resumed run replays bit-identically
// — the threshold-then-observe bounds of the remaining rounds are a pure
// function of that restored state.
func TestStackedCheckpointResumeBitIdentical(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	for _, policy := range []AggregationPolicy{PolicySync, PolicyDeadline, PolicyAsync} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := stackedConfig(t, policy, 11, net.GradFlops(8))
			cfg.Rounds = 8
			cfg.CheckpointEvery = 3
			cap := &stackedCapture{}
			cfg.OnCheckpoint = cap.hook()
			want, err := Run(cfg, goldenFedAvg{}, net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			blob := cap.at(3)
			if blob == nil {
				t.Fatalf("no checkpoint at round 3 (captured %v)", cap.rounds)
			}
			cfg.OnCheckpoint = nil
			got, err := Resume(cfg, goldenFedAvg{}, net, shards, test, blob)
			if err != nil {
				t.Fatal(err)
			}
			if wh, gh := paramsHash(want.FinalParams), paramsHash(got.FinalParams); wh != gh {
				t.Fatalf("FinalParams hash mismatch after resume: %016x vs %016x", wh, gh)
			}
			if len(want.Run.Rounds) != len(got.Run.Rounds) {
				t.Fatalf("round count: %d vs %d", len(want.Run.Rounds), len(got.Run.Rounds))
			}
			for i := range want.Run.Rounds {
				w, g := want.Run.Rounds[i], got.Run.Rounds[i]
				w.SlowestMeasuredSec, g.SlowestMeasuredSec = 0, 0
				w.CumMeasuredSec, g.CumMeasuredSec = 0, 0
				if w != g {
					t.Fatalf("round %d record mismatch:\nwant %+v\ngot  %+v", i, w, g)
				}
			}
		})
	}
}

// newFuzzStack builds a wrapped algorithm with the full stack + FedAdam
// over a tiny environment, for the state-roundtrip fuzz target.
func newFuzzStack(tb testing.TB) *stackedAlg { return newTestStack(tb, 4, 8) }

// newTestStack builds FedAvg wrapped in zeroing|clip + FedAdam for the
// given fleet and model size.
func newTestStack(tb testing.TB, clients, params int) *stackedAlg {
	tb.Helper()
	cfg := Config{}
	var err error
	if cfg.AggStack, err = aggstack.ParseStack("zeroing|clip"); err != nil {
		tb.Fatal(err)
	}
	if cfg.ServerOpt, err = aggstack.ParseServerOpt("adam:0.1"); err != nil {
		tb.Fatal(err)
	}
	alg, err := wrapStack(goldenFedAvg{}, &cfg)
	if err != nil {
		tb.Fatal(err)
	}
	a := alg.(*stackedAlg)
	a.Setup(&Env{NumClients: clients, NumParams: params, Cfg: cfg})
	return a
}

// mixedUpdates draws a buffer of n updates over d coordinates whose forms
// cycle through dense, int8 and top-k from form0, from clients that
// repeat (update i comes from client i/2), at lognormal scales with a
// rare 1e4× outlier, so that zeroing and clipping both engage. A top-k
// upload keeps about a third of its coordinates; its delta is the
// decoded dense view.
func mixedUpdates(r *rand.Rand, n, d, form0 int) []Update {
	us := make([]Update, n)
	for i := range us {
		delta := make([]float64, d)
		scale := math.Exp(r.NormFloat64())
		if r.IntN(12) == 0 {
			scale *= 1e4
		}
		for j := range delta {
			delta[j] = scale * r.NormFloat64()
		}
		u := Update{Client: i / 2, Delta: delta, NumSamples: 1 + r.IntN(9)}
		switch (form0 + i) % 3 {
		case 1:
			u.Payload = &compress.Payload{Form: compress.KindInt8, N: d}
		case 2:
			p := &compress.Payload{Form: compress.KindTopK, N: d}
			for j, v := range delta {
				if r.IntN(3) == 0 {
					p.Idx = append(p.Idx, int32(j))
					p.Val = append(p.Val, v)
				} else {
					delta[j] = 0
				}
			}
			u.Payload = p
		}
		us[i] = u
	}
	return us
}

// cloneUpdates deep-copies a buffer: deltas and payload values, which
// clipping rescales in place.
func cloneUpdates(us []Update) []Update {
	out := slices.Clone(us)
	for i := range out {
		out[i].Delta = slices.Clone(us[i].Delta)
		if p := us[i].Payload; p != nil {
			q := *p
			q.Val = slices.Clone(p.Val)
			out[i].Payload = &q
		}
	}
	return out
}

// TestStackNormsMatchPerUpdate pins the stack's paired norm pass to the
// per-update path it replaced: updateNorms equals Update.Norm update by
// update (bit for bit, NaN as one value) on buffers of 1, 2, 3, 20 and 21
// mixed dense, int8 and top-k uploads, ±Inf, NaN and 1e300 coordinates
// included; and over 60 steps of a zeroing|clip stack, whose adaptive
// bounds carry each step's norms into the next, the multipliers, fates,
// clip bound and rescaled deltas equal those of a twin stack fed the
// per-update norms.
func TestStackNormsMatchPerUpdate(t *testing.T) {
	const d = 67
	r := rand.New(rand.NewPCG(61, 67))
	counts := []int{1, 2, 3, 20, 21}
	sameBits := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for step := 0; step < 60; step++ {
		us := mixedUpdates(r, counts[step%len(counts)], d, step)
		if step%4 == 3 {
			u := &us[r.IntN(len(us))]
			v := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e300}[step/4%4]
			if p := u.Payload; p != nil && p.Sparse() && len(p.Val) > 0 {
				p.Val[0] = v
				u.Delta[p.Idx[0]] = v
			} else {
				u.Delta[r.IntN(d)] = v
			}
		}
		got := updateNorms(us, make([]float64, len(us)))
		for i := range us {
			if want := us[i].Norm(); !sameBits(got[i], want) {
				t.Fatalf("step %d, update %d of %d (payload %v): paired norm %v, Update.Norm %v", step, i, len(us), us[i].Payload != nil, got[i], want)
			}
		}
	}

	paired, ref := newTestStack(t, 21, d), newTestStack(t, 21, d)
	var fates [metrics.NumOutcomes]int
	for step := 0; step < 60; step++ {
		us := mixedUpdates(r, counts[step%len(counts)], d, step)
		twin := cloneUpdates(us)
		kept := paired.applyStages(us)

		n := len(twin)
		norms, mult := make([]float64, n), make([]float64, n)
		for i := range twin {
			norms[i], mult[i] = twin[i].Norm(), 1
		}
		var clip float64
		for _, st := range ref.stages {
			bound := st.Bound()
			st.Apply(norms, mult)
			if st.Kind() == aggstack.StageClipping {
				clip = bound
			}
		}
		if paired.lastClipNorm != clip {
			t.Fatalf("step %d: clip bound %v, per-update path %v", step, paired.lastClipNorm, clip)
		}
		survivors := 0
		for i := range twin {
			if !sameBits(paired.mult[i], mult[i]) {
				t.Fatalf("step %d, update %d: multiplier %v, per-update path %v", step, i, paired.mult[i], mult[i])
			}
			want := metrics.Aggregated
			switch {
			case mult[i] == 0:
				want = metrics.Zeroed
			case mult[i] != 1:
				want = metrics.Clipped
			}
			if got := paired.fate(i); got != want {
				t.Fatalf("step %d, update %d: fate %v, per-update path %v", step, i, got, want)
			}
			fates[want]++
			if mult[i] == 0 {
				continue
			}
			survivors++
			if mult[i] != 1 {
				scaleUpdate(&twin[i], mult[i])
			}
			for j := range twin[i].Delta {
				if !sameBits(us[i].Delta[j], twin[i].Delta[j]) {
					t.Fatalf("step %d, update %d, coordinate %d: %v, per-update path %v", step, i, j, us[i].Delta[j], twin[i].Delta[j])
				}
			}
		}
		if len(kept) != survivors {
			t.Fatalf("step %d: %d survivors, per-update path %d", step, len(kept), survivors)
		}
	}
	if fates[metrics.Zeroed] == 0 || fates[metrics.Clipped] == 0 {
		t.Fatalf("the stages never engaged: %d zeroed, %d clipped", fates[metrics.Zeroed], fates[metrics.Clipped])
	}
}

// scanProbe is FedAvg that checks, in every Aggregate, that each update
// arriving with the stack's scan carries exactly ScanOf(Delta), and counts
// the updates that arrive with and without one.
type scanProbe struct {
	goldenFedAvg
	t                *testing.T
	carried, retaken int
}

func (a *scanProbe) Aggregate(s *ServerCtx, updates []Update) {
	for i := range updates {
		u := &updates[i]
		if !u.scanned {
			a.retaken++
			continue
		}
		a.carried++
		if want := vecmath.ScanOf(u.Delta); math.Float64bits(u.scan.Max) != math.Float64bits(want.Max) || math.Float64bits(u.scan.Sq) != math.Float64bits(want.Sq) {
			a.t.Fatalf("client %d: carried scan %v, its delta scans to %v", u.Client, u.scan, want)
		}
	}
	a.goldenFedAvg.Aggregate(s, updates)
}

// TestStackScanCarriedToEq7 pins the scan the stack hands to Eq. 7: on
// mixed buffers under a zeroing|clip stack, every dense update the stack
// left at multiplier 1 carries its delta's MaxAbs and Norm2Safe bit for
// bit, a clipped one carries none (and a zeroed one never reaches the
// inner rule), and NormsCosines gives the same norms and cosines bits with
// the scans as with every update rescanned. A run whose sign-flipping
// clients mutate their deltas before upload, under the same stack, sees
// only scans of the deltas as mutated; a client that scales its delta past
// a fixed clip bound arrives without one.
func TestStackScanCarriedToEq7(t *testing.T) {
	const d = 67
	r := rand.New(rand.NewPCG(71, 73))
	a := newTestStack(t, 21, d)
	sameBits := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	var carried, clipped int
	for step := 0; step < 60; step++ {
		us := mixedUpdates(r, []int{1, 2, 3, 20, 21}[step%5], d, step)
		kept := a.applyStages(us)
		for j, i := range a.keptIdx {
			u := &kept[j]
			switch {
			case u.sparse():
				if u.scanned {
					t.Fatalf("step %d, update %d: a top-k upload carries a scan", step, i)
				}
			case a.mult[i] != 1:
				if u.scanned {
					t.Fatalf("step %d, update %d: clipped by %v but still carries its scan", step, i, a.mult[i])
				}
				clipped++
			default:
				if !u.scanned || !sameBits(u.scan.Max, vecmath.MaxAbs(u.Delta)) || !sameBits(u.scan.Norm(), vecmath.Norm2Safe(u.Delta)) {
					t.Fatalf("step %d, update %d: scan %v (set %v), delta has MaxAbs %v and Norm2Safe %v",
						step, i, u.scan, u.scanned, vecmath.MaxAbs(u.Delta), vecmath.Norm2Safe(u.Delta))
				}
				carried++
			}
		}
		if len(kept) == 0 {
			continue
		}
		y := make([]float64, d)
		for i := range kept {
			kept[i].AddScaled(1/float64(len(kept)), y)
		}
		rescanned := slices.Clone(kept)
		for i := range rescanned {
			rescanned[i].scanned = false
		}
		n, c := make([]float64, len(kept)), make([]float64, len(kept))
		wn, wc := make([]float64, len(kept)), make([]float64, len(kept))
		NormsCosines(kept, y, n, c)
		NormsCosines(rescanned, y, wn, wc)
		for i := range kept {
			if !sameBits(n[i], wn[i]) || !sameBits(c[i], wc[i]) {
				t.Fatalf("step %d, kept update %d: (norm, cos) = (%v, %v) with the scan, (%v, %v) rescanned", step, i, n[i], c[i], wn[i], wc[i])
			}
		}
	}
	if carried == 0 || clipped == 0 {
		t.Fatalf("the stack carried %d scans and clipped %d updates; both must engage", carried, clipped)
	}

	// The clip bound is the largest honest norm of a probe run, so the
	// client that scales its delta by 4 is clipped and the rest are not.
	net, shards, test := poolSetup(t, 8)
	cfg := Config{Rounds: 8, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 13}
	cfg.Adversaries = []adversary.Spec{{Kind: adversary.KindSignFlip, Clients: []int{1, 5}}}
	norms := &normProbe{}
	if _, err := Run(cfg, norms, net, shards, test); err != nil {
		t.Fatal(err)
	}
	cfg.Adversaries = append(cfg.Adversaries, adversary.Spec{Kind: adversary.KindScale, Clients: []int{3}, Scale: 4})
	cfg.AggStack = aggstack.StackSpec{Stages: []aggstack.StageSpec{{Kind: aggstack.StageClipping, Norm: norms.maxNorm}}}
	probe := &scanProbe{t: t}
	if _, err := Run(cfg, probe, net, shards, test); err != nil {
		t.Fatal(err)
	}
	if probe.carried == 0 || probe.retaken == 0 {
		t.Fatalf("%d updates carried a scan and %d did not; both must occur", probe.carried, probe.retaken)
	}
}

// FuzzStackRoundtrip feeds arbitrary bytes to the wrapper's LoadState:
// corrupt or truncated stack state must fail with an error, never a
// panic; and any accepted state must re-serialize to a fixed point
// (save → load → save is bit-identical), the property checkpoint resume
// depends on.
func FuzzStackRoundtrip(f *testing.F) {
	seedAlg := newFuzzStack(f)
	var fresh bytes.Buffer
	if err := seedAlg.SaveState(&fresh); err != nil {
		f.Fatal(err)
	}
	f.Add(fresh.Bytes())

	seedAlg.stages[0].SetEstimate(42.5)
	seedAlg.stages[1].SetEstimate(0.125)
	_, m, v := seedAlg.opt.State()
	for i := range m {
		m[i] = float64(i) * 0.25
		v[i] = float64(i) * 0.5
	}
	if err := seedAlg.opt.Restore(7, m, v); err != nil {
		f.Fatal(err)
	}
	var warmed bytes.Buffer
	if err := seedAlg.SaveState(&warmed); err != nil {
		f.Fatal(err)
	}
	f.Add(warmed.Bytes())
	f.Add(warmed.Bytes()[:warmed.Len()/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a := newFuzzStack(t)
		if err := a.LoadState(bytes.NewReader(data)); err != nil {
			return
		}
		var first bytes.Buffer
		if err := a.SaveState(&first); err != nil {
			t.Fatalf("save after accepted load: %v", err)
		}
		b := newFuzzStack(t)
		if err := b.LoadState(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("canonical state rejected on reload: %v", err)
		}
		var second bytes.Buffer
		if err := b.SaveState(&second); err != nil {
			t.Fatalf("second save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/load/save not a fixed point:\nfirst  %x\nsecond %x", first.Bytes(), second.Bytes())
		}
	})
}
