package fl_test

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// finalModels decorates an algorithm with a copy of its output model after
// every Aggregate, keyed by the round the aggregate closes; a replayed
// round overwrites its copy.
type finalModels struct {
	fl.Algorithm
	models map[int][]float64
}

func (f *finalModels) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	f.Algorithm.Aggregate(s, updates)
	f.models[s.Round] = slices.Clone(f.FinalModel(s.W))
}

// WireSafe lets the loopback case serve the decorated FedAvg.
func (*finalModels) WireSafe() {}

// checkEvalRecords checks every record against the copied models: an
// evaluated record's accuracy is Engine.Accuracy on its round's model and
// its top-class share a naive recount, and a carried-forward record
// equals the last evaluated one.
func checkEvalRecords(t *testing.T, net *nn.Network, test *dataset.Dataset, cfg fl.Config, models map[int][]float64, recs []metrics.Round) {
	t.Helper()
	eng := nn.NewEngine(net, min(256, max(1, test.Len())))
	var last metrics.Round
	for i, r := range recs {
		if r.Index != i {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
		if (i+1)%max(1, cfg.EvalEvery) != 0 && i != cfg.Rounds-1 {
			if r.Accuracy != last.Accuracy || r.TopClassShare != last.TopClassShare {
				t.Fatalf("round %d carries acc %v top %v, want the last evaluated %v %v", i, r.Accuracy, r.TopClassShare, last.Accuracy, last.TopClassShare)
			}
			continue
		}
		w, ok := models[i]
		if !ok {
			t.Fatalf("no model copied for round %d", i)
		}
		acc := eng.Accuracy(w, test.X, test.Y)
		_, top := fl.NaiveEval(net, w, test)
		if r.Accuracy != acc || r.TopClassShare != top {
			t.Fatalf("round %d reads acc %v top %v, its model evaluates to %v %v", i, r.Accuracy, r.TopClassShare, acc, top)
		}
		last = r
	}
}

// TestEvalOverlapAccuracy pins the evaluation that overlaps the next
// round: round t's model is snapshotted at its commit and evaluated on
// the pool while round t+1 runs, and joined before anything reads or
// replaces the record. Every record must equal an evaluation of the model
// its round aggregated, under every policy and parallelism, both
// cadences, and every path that snapshots, restores or stops a run:
// Resume from a mid-run checkpoint, the servercrash restore, the
// divergence rollback and the divergence halt. One loopback Serve run
// covers the ring pool, whose caller runs the evaluation while it waits
// for worker replies.
func TestEvalOverlapAccuracy(t *testing.T) {
	network, shards, test := testSetup(t, 8)
	scenarios := []struct {
		name   string
		mutate func(*fl.Config)
		alg    func() fl.Algorithm
		check  func(t *testing.T, res *fl.Result)
	}{
		{name: "clean"},
		{name: "resume", mutate: func(c *fl.Config) { c.CheckpointEvery = 3 }},
		{name: "servercrash", mutate: func(c *fl.Config) {
			c.Faults = []fault.Spec{{Kind: fault.KindServerCrash, Round: 5}}
			c.CheckpointEvery = 2
		}, check: func(t *testing.T, res *fl.Result) {
			if res.Run.RecoveredRounds == 0 {
				t.Fatal("the servercrash never fired")
			}
		}},
		{name: "rollback", mutate: func(c *fl.Config) { c.CheckpointEvery = 2 },
			alg: func() fl.Algorithm { return &nanBomb{FedAvg: baselines.NewFedAvg(), bombAt: 6} },
			check: func(t *testing.T, res *fl.Result) {
				if res.Run.Rollbacks != 1 {
					t.Fatalf("Rollbacks = %d, want 1", res.Run.Rollbacks)
				}
			}},
		{name: "halt", alg: func() fl.Algorithm { return &nanBomb{FedAvg: baselines.NewFedAvg(), bombAt: 6} },
			check: func(t *testing.T, res *fl.Result) {
				if res.Run.HaltRound != 5 || len(res.Run.Rounds) != 5 {
					t.Fatalf("halted at round %d with %d records, want 5 and 5", res.Run.HaltRound, len(res.Run.Rounds))
				}
			}},
	}
	for _, policy := range []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline, fl.PolicyAsync} {
		for _, p := range []int{1, 2, 4} {
			for _, every := range []int{1, 3} {
				for _, sc := range scenarios {
					t.Run(fmt.Sprintf("%s/P%d/every%d/%s", policy, p, every, sc.name), func(t *testing.T) {
						fl.CheckGoroutines(t)
						cfg := policyConfig(t, policy, 11)
						cfg.Rounds, cfg.Parallelism, cfg.EvalEvery = 10, p, every
						if sc.mutate != nil {
							sc.mutate(&cfg)
						}
						newAlg := func() fl.Algorithm { return baselines.NewFedAvg() }
						if sc.alg != nil {
							newAlg = sc.alg
						}
						dec := &finalModels{Algorithm: newAlg(), models: map[int][]float64{}}
						var blob []byte
						if sc.name == "resume" {
							cfg.OnCheckpoint = func(round int, data []byte) {
								if round == 6 {
									blob = slices.Clone(data)
								}
							}
						}
						res, err := fl.Run(cfg, dec, network, shards, test)
						if err != nil {
							t.Fatal(err)
						}
						if sc.name == "resume" {
							if blob == nil {
								t.Fatal("no round-6 checkpoint")
							}
							cfg.OnCheckpoint = nil
							dec.Algorithm = newAlg()
							if res, err = fl.Resume(cfg, dec, network, shards, test, blob); err != nil {
								t.Fatal(err)
							}
						}
						if sc.check != nil {
							sc.check(t, res)
						}
						checkEvalRecords(t, network, test, cfg, dec.models, res.Run.Rounds)
					})
				}
			}
		}
	}

	t.Run("serve", func(t *testing.T) {
		fl.CheckGoroutines(t)
		cfg := quickConfig()
		cfg.Rounds, cfg.Parallelism = 8, 2
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		const workers = 2
		errs := make(chan error, workers)
		for i := range workers {
			go func() {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					errs <- err
					return
				}
				errs <- fl.RunWorker(conn, i, workers, cfg, baselines.NewFedAvg(), network, shards, test.Name)
			}()
		}
		dec := &finalModels{Algorithm: baselines.NewFedAvg(), models: map[int][]float64{}}
		res, err := fl.Serve(ln, fl.ServeOptions{Workers: workers}, cfg, dec, network, shards, test)
		for range workers {
			if werr := <-errs; werr != nil {
				t.Errorf("worker: %v", werr)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		checkEvalRecords(t, network, test, cfg, dec.models, res.Run.Rounds)
	})
}

// zeroHead is FedAvg whose output model has its last layer zeroed: every
// logit is 0, so every argmax is class 0.
type zeroHead struct {
	*baselines.FedAvg
	classes int
	out     []float64
}

func (z *zeroHead) FinalModel(w []float64) []float64 {
	z.out = append(z.out[:0], w...)
	// The adult MLP's output layer is Dense(8 → classes): 8·classes
	// weights and classes biases, the last parameters of the vector.
	clear(z.out[len(z.out)-9*z.classes:])
	return z.out
}

// TestTopClassShareZeroedHead pins the top-class share at 1 for a model
// that predicts class 0 for every input, and its accuracy at the share of
// class-0 labels.
func TestTopClassShareZeroedHead(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := quickConfig()
	res, err := fl.Run(cfg, &zeroHead{FedAvg: baselines.NewFedAvg(), classes: net.OutSize()}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, y := range test.Y {
		if y == 0 {
			zeros++
		}
	}
	want := float64(zeros) / float64(test.Len())
	for _, r := range res.Run.Rounds {
		if r.TopClassShare != 1 || r.Accuracy != want {
			t.Fatalf("round %d: top-class share %v, accuracy %v; want 1 and %v", r.Index, r.TopClassShare, r.Accuracy, want)
		}
	}
}

// TestTopClassShareMatchesRecount checks a trained quick-scale adult run:
// its last record's accuracy and top-class share equal a naive recount
// over Engine.Predict on the final model.
func TestTopClassShareMatchesRecount(t *testing.T) {
	p, err := experiments.ProfileFor("adult", experiments.ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	cfg, shards, test, _, err := p.Materialize(1)
	if err != nil {
		t.Fatal(err)
	}
	network, err := p.Model()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run(*cfg, baselines.NewFedAvg(), network, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Run.Rounds[len(res.Run.Rounds)-1]
	acc, top := fl.NaiveEval(network, res.FinalParams, test)
	if last.Accuracy != acc || last.TopClassShare != top {
		t.Fatalf("last record acc %v top %v, recount %v %v", last.Accuracy, last.TopClassShare, acc, top)
	}
	if top < 0.5 || top > 1 {
		t.Fatalf("top-class share %v outside [0.5, 1] for two classes", top)
	}
}

// TestCheckpointRefusesOldMagic pins the format bump: a blob that carries
// the previous format's magic (which stored a failed async flight's
// update, payload included) is refused, not misread.
func TestCheckpointRefusesOldMagic(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := quickConfig()
	cfg.CheckpointEvery = 2
	c := &ckptCapture{}
	cfg.OnCheckpoint = c.hook()
	if _, err := fl.Run(cfg, core.New(core.Recommended()), net, shards, test); err != nil {
		t.Fatal(err)
	}
	cfg.OnCheckpoint = nil
	blob := slices.Clone(c.at(4))
	if string(blob[:8]) != "FLCKPT10" {
		t.Fatalf("magic %q, want FLCKPT10", blob[:8])
	}
	if _, err := fl.Resume(cfg, core.New(core.Recommended()), net, shards, test, blob); err != nil {
		t.Fatalf("Resume of the current format: %v", err)
	}
	copy(blob, "FLCKPT09")
	_, err := fl.Resume(cfg, core.New(core.Recommended()), net, shards, test, blob)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("Resume of a FLCKPT09 blob: err = %v, want bad magic", err)
	}
}
