package fl

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"sort"
	"testing"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// referenceRun is a frozen copy of the engine's pre-scheduler lock-step
// round loop (the Run of the GEMM-substrate revision). It is the golden
// oracle for the synchronous policy: the round body must reproduce it
// bit-identically — same RNG derivation order, same update ordering,
// same aggregation arithmetic. Do not "fix" or modernize this function;
// divergence from it is the bug.
func referenceRun(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset) (*Result, error) {
	n := len(shards)
	root := rng.New(cfg.Seed)
	params := net.InitParams(root.Derive("init", 0))
	numParams := net.NumParams()

	clients := make([]client, n)
	dataSizes := make([]int, n)
	for i, shard := range shards {
		clients[i] = client{
			id:      i,
			data:    shard,
			sampler: dataset.NewSampler(shard, root.Derive("sampler", i)),
		}
		dataSizes[i] = shard.Len()
	}
	// The reference loop predates the slot pool; per-client resources are
	// now pooled, but the local-update arithmetic and ordering it pins are
	// unchanged (runRound fills updates[j] for ids[j] exactly as the old
	// per-client engines did).
	pool := newSlotPool(net, cfg, min(cfg.parallelism(), n), n, false)
	defer pool.close()

	env := &Env{
		Net:        net,
		NumClients: n,
		NumParams:  numParams,
		DataSizes:  dataSizes,
		Cfg:        cfg,
	}
	alg.Setup(env)

	evalEng := nn.NewEngine(net, min(256, max(1, test.Len())))
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	expelled := make(map[int]int)
	run := &metrics.Run{Algorithm: alg.Name(), Dataset: test.Name}

	wPrev := vecmath.Clone(params)
	modeledRound := simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, alg.Costs())
	participationRNG := root.Derive("participation", 0)
	// The reference loop predates the adversary subsystem; its freeloader
	// flag is now the compiled always-on fabricator, assembled from the
	// same config field by the same setup helper (streams derive after
	// every honest stream, so honest arithmetic is unchanged).
	if err := setupAdversaries(&cfg, clients, root); err != nil {
		return nil, err
	}

	for t := 0; t < cfg.Rounds; t++ {
		ids := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if active[i] {
				ids = append(ids, i)
			}
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("fl: all clients expelled by round %d", t)
		}
		if f := cfg.ParticipationFraction; f > 0 && f < 1 {
			take := max(int(f*float64(len(ids))+0.5), 1)
			// Floyd's algorithm as Bentley & Floyd state it (CACM 1987):
			// for j from n−take to n−1, draw t uniform in [0, j]; add t to
			// the sample unless it is there already, else add j. A map
			// holds the sample, not the engine's bitset sampler, so the
			// oracle stays independent of the code it checks.
			inSample := make(map[int]bool, take)
			picked := make([]int, 0, take)
			for j := len(ids) - take; j < len(ids); j++ {
				v := participationRNG.IntN(j + 1)
				if inSample[v] {
					v = j
				}
				inSample[v] = true
				picked = append(picked, v)
			}
			sort.Ints(picked)
			sampled := make([]int, take)
			for j, p := range picked {
				sampled[j] = ids[p]
			}
			ids = sampled
		}

		updates := make([]Update, len(ids))
		measured := make([]float64, len(ids))
		pool.runRound(&cfg, alg, clients, ids, t, params, wPrev, updates, measured)

		var slowestMeasured float64
		anyHonest := false
		for j, id := range ids {
			if clients[id].fabricator() != nil {
				continue
			}
			anyHonest = true
			if measured[j] > slowestMeasured {
				slowestMeasured = measured[j]
			}
		}
		slowestModeled := modeledRound
		if !anyHonest {
			slowestModeled = 0
		}

		copy(wPrev, params)
		server := &ServerCtx{
			Round:  t,
			W:      params,
			WPrev:  wPrev,
			Env:    env,
			Active: active,
		}
		alg.Aggregate(server, updates)
		for _, id := range server.expelled {
			if active[id] {
				active[id] = false
				expelled[id] = t
			}
		}

		if !vecmath.AllFinite(params) {
			run.Diverged = true
			run.DivergedRound = t
			break
		}

		rec := metrics.Round{
			Index:              t,
			TrainLoss:          meanLoss(updates),
			SlowestModeledSec:  slowestModeled,
			SlowestMeasuredSec: slowestMeasured,
			MeanAlpha:          alg.MeanAlpha(),
			// The reference loop predates the compression substrate; its
			// uploads are dense float64 vectors, whose on-wire cost the
			// scheduler now records explicitly (8d bytes per update,
			// ratio 1).
			UplinkBytes:      8 * int64(numParams) * int64(len(updates)),
			CompressionRatio: 1,
		}
		// Nor does it know outcomes: every participant it trains is
		// aggregated.
		rec.Outcomes[metrics.Aggregated] = uint32(len(updates))
		// The reference loop predates the top-class share; it recounts it
		// naively over the same model.
		if (t+1)%cfg.evalEvery() == 0 || t == cfg.Rounds-1 {
			rec.Accuracy = evalEng.Accuracy(alg.FinalModel(params), test.X, test.Y)
			_, rec.TopClassShare = naiveEval(net, alg.FinalModel(params), test)
		} else if len(run.Rounds) > 0 {
			rec.Accuracy = run.Rounds[len(run.Rounds)-1].Accuracy
			rec.TopClassShare = run.Rounds[len(run.Rounds)-1].TopClassShare
		}
		run.Append(rec)
	}

	return &Result{
		Run:         run,
		FinalParams: vecmath.Clone(alg.FinalModel(params)),
		Expelled:    expelled,
	}, nil
}

// paramsHash fingerprints a parameter vector bit-exactly.
func paramsHash(params []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range params {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenSetup builds the small adult federation the golden tests train.
func goldenSetup(t *testing.T, clients int, seed uint64) (*nn.Network, []*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test, err := dataset.Standard("adult", dataset.ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, clients, 0.5, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataset.Model("adult")
	if err != nil {
		t.Fatal(err)
	}
	return net, part.Shards(train), test
}

// TestSyncPolicyMatchesPreSchedulerEngine is the golden regression: the
// event-driven scheduler's synchronous policy must reproduce the
// pre-refactor round loop bit-identically — FinalParams hash, every
// metric field, and expulsions — across algorithms and engine features
// (freeloaders, partial participation).
func TestSyncPolicyMatchesPreSchedulerEngine(t *testing.T) {
	cases := []struct {
		name string
		alg  func() Algorithm
		cfg  func(*Config)
	}{
		{"fedavg", func() Algorithm { return goldenFedAvg{} }, nil},
		{"fedavg-partial", func() Algorithm { return goldenFedAvg{} }, func(c *Config) { c.ParticipationFraction = 0.5 }},
		// Expulsions shrink the set the sampler draws from: the scheduler's
		// kept active-id list must match the reference's per-round walk.
		{"fedavg-partial-expel", func() Algorithm { return goldenExpelFedAvg{victims: map[int]int{1: 2, 3: 4}} }, func(c *Config) { c.ParticipationFraction = 0.5 }},
		{"fedavg-freeloader", func() Algorithm { return goldenFedAvg{} }, func(c *Config) { c.Adversaries = []adversary.Spec{adversary.Freeloaders([]int{5})} }},
		{"fedavg-bydata", func() Algorithm { return goldenFedAvg{} }, func(c *Config) { c.WeightByData = true }},
		// A declared-but-empty adversary list is the honest run: it must
		// reproduce the adversary-free golden trace bit-identically.
		{"fedavg-empty-adversaries", func() Algorithm { return goldenFedAvg{} }, func(c *Config) { c.Adversaries = []adversary.Spec{} }},
		// A declared-but-empty fault list derives no fault streams and
		// must reproduce the fault-free golden trace bit-identically.
		{"fedavg-empty-faults", func() Algorithm { return goldenFedAvg{} }, func(c *Config) { c.Faults = []fault.Spec{} }},
		// Periodic checkpointing is pure observation: snapshots must not
		// perturb a single draw or byte of the training trajectory.
		{"fedavg-checkpointing", func() Algorithm { return goldenFedAvg{} }, func(c *Config) { c.CheckpointEvery = 2 }},
		// A unit-LR FedSGD server optimizer wraps the rule in the stack
		// shim but is algebraically the vanilla apply: the wrapped run must
		// reproduce the reference loop (which predates the stack and never
		// wraps) bit-identically.
		{"fedavg-fedsgd-identity", func() Algorithm { return goldenFedAvg{} }, func(c *Config) {
			c.ServerOpt = aggstack.OptSpec{Kind: aggstack.OptFedSGD, LR: 1}
		}},
		// A server crash restores the last checkpoint with its rng
		// cursors; the replayed rounds are bit-identical, so the whole
		// run still matches the crash-free reference.
		{"fedavg-servercrash-replay", func() Algorithm { return goldenFedAvg{} }, func(c *Config) {
			c.Faults = []fault.Spec{{Kind: fault.KindServerCrash, Round: 3}}
			c.CheckpointEvery = 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, shards, test := goldenSetup(t, 6, 4)
			cfg := Config{Rounds: 5, LocalSteps: 4, BatchSize: 16, LocalLR: 0.05, Seed: 11}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			want, err := referenceRun(cfg, tc.alg(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(cfg, tc.alg(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if wh, gh := paramsHash(want.FinalParams), paramsHash(got.FinalParams); wh != gh {
				t.Fatalf("FinalParams hash mismatch: reference %016x, scheduler %016x", wh, gh)
			}
			if !maps.Equal(want.Expelled, got.Expelled) {
				t.Fatalf("expulsions: reference %v, scheduler %v", want.Expelled, got.Expelled)
			}
			if len(want.Run.Rounds) != len(got.Run.Rounds) {
				t.Fatalf("round count: reference %d, scheduler %d", len(want.Run.Rounds), len(got.Run.Rounds))
			}
			for i := range want.Run.Rounds {
				// Measured wall time is real Go time, inherently noisy;
				// every modeled/deterministic field must match exactly.
				// The weight-mass fields postdate the frozen reference
				// (which never computes them) and are pinned by the
				// adversary tests instead.
				w, g := want.Run.Rounds[i], got.Run.Rounds[i]
				w.SlowestMeasuredSec, g.SlowestMeasuredSec = 0, 0
				w.CumMeasuredSec, g.CumMeasuredSec = 0, 0
				w.HonestWeight, g.HonestWeight = 0, 0
				w.CorruptWeight, g.CorruptWeight = 0, 0
				if w != g {
					t.Fatalf("round %d record mismatch:\nreference %+v\nscheduler %+v", i, w, g)
				}
			}
		})
	}
}

// goldenFedAvg is a minimal FedAvg so the white-box golden test does not
// import internal/baselines (which would create an import cycle through
// this package).
type goldenFedAvg struct{ Base }

func (goldenFedAvg) Name() string { return "FedAvg" }
func (goldenFedAvg) Aggregate(s *ServerCtx, updates []Update) {
	FedAvgStep(s, updates)
}

// goldenExpelFedAvg is goldenFedAvg that expels victims[round] at that
// round, whether or not the client participated.
type goldenExpelFedAvg struct {
	goldenFedAvg
	victims map[int]int
}

func (a goldenExpelFedAvg) Aggregate(s *ServerCtx, updates []Update) {
	if id, ok := a.victims[s.Round]; ok {
		s.Expel(id)
	}
	FedAvgStep(s, updates)
}
