package fl_test

import (
	"fmt"
	"math"
	"repro/internal/adversary"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// heteroFleet returns a deterministic 8-client fleet with one slow and
// one intermittently-available device, sized so the deadline and async
// dynamics are exercised at test scale.
func heteroFleet(nominal float64) []simclock.DeviceProfile {
	fleet := simclock.UniformFleet(8)
	fleet[2].SpeedFactor = 5 // hard straggler
	fleet[5] = simclock.DeviceProfile{
		SpeedFactor:  1.2,
		Availability: simclock.Trace{PeriodSec: 10 * nominal, OnFraction: 0.5, OffsetSec: 6 * nominal},
	}
	return fleet
}

// nominalRound returns the modeled plain-profile round duration for the
// 8-client adult test setup.
func nominalRound(t *testing.T, cfg fl.Config) float64 {
	t.Helper()
	net, _, _ := testSetup(t, 8)
	return simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, simclock.Plain())
}

// policyConfig builds one test config per aggregation policy over the
// shared heterogeneous fleet.
func policyConfig(t *testing.T, policy fl.AggregationPolicy, seed uint64) fl.Config {
	t.Helper()
	cfg := quickConfig()
	cfg.Seed = seed
	nominal := nominalRound(t, cfg)
	cfg.Devices = heteroFleet(nominal)
	cfg.Policy = policy
	switch policy {
	case fl.PolicyDeadline:
		cfg.RoundDeadlineSec = 1.5 * nominal
	case fl.PolicyAsync:
		cfg.AsyncBuffer = 3
	}
	return cfg
}

// TestSchedulerDeterministicAcrossParallelism is the determinism
// regression the event scheduler is locked down by: for every policy and
// two seeds, Parallelism=1 and Parallelism=8 must produce bit-identical
// results — final parameters and the full deterministic metric history.
func TestSchedulerDeterministicAcrossParallelism(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	policies := []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline, fl.PolicyAsync}
	for _, policy := range policies {
		for _, seed := range []uint64{11, 97} {
			t.Run(fmt.Sprintf("%s/seed%d", policy, seed), func(t *testing.T) {
				cfgSerial := policyConfig(t, policy, seed)
				cfgSerial.Parallelism = 1
				cfgParallel := policyConfig(t, policy, seed)
				cfgParallel.Parallelism = 8

				resA, err := fl.Run(cfgSerial, core.New(core.Recommended()), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				resB, err := fl.Run(cfgParallel, core.New(core.Recommended()), net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				for i := range resA.FinalParams {
					if resA.FinalParams[i] != resB.FinalParams[i] {
						t.Fatalf("param %d differs across parallelism levels", i)
					}
				}
				if len(resA.Run.Rounds) != len(resB.Run.Rounds) {
					t.Fatalf("round counts differ: %d vs %d", len(resA.Run.Rounds), len(resB.Run.Rounds))
				}
				for i := range resA.Run.Rounds {
					a, b := resA.Run.Rounds[i], resB.Run.Rounds[i]
					a.SlowestMeasuredSec, b.SlowestMeasuredSec = 0, 0
					a.CumMeasuredSec, b.CumMeasuredSec = 0, 0
					if a != b {
						t.Fatalf("round %d metrics differ across parallelism levels:\nP=1 %+v\nP=8 %+v", i, a, b)
					}
				}
			})
		}
	}
}

// TestDeadlinePolicyDropsStragglers checks the deadline policy's core
// behavior: the 5×-slow device misses every round's deadline, drops are
// recorded, the round's modeled duration is capped at the deadline, and
// training still learns.
func TestDeadlinePolicyDropsStragglers(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := policyConfig(t, fl.PolicyDeadline, 11)
	res, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	run := res.Run
	if run.Total(metrics.Cut) == 0 {
		t.Fatal("expected straggler drops under the deadline policy")
	}
	for i, rec := range run.Rounds {
		if rec.Outcomes[metrics.Cut] > 0 && rec.SlowestModeledSec > cfg.RoundDeadlineSec {
			t.Fatalf("round %d waited %.6fs past the %.6fs deadline", i, rec.SlowestModeledSec, cfg.RoundDeadlineSec)
		}
		if rec.MeanStaleness != 0 || rec.MaxStaleness != 0 {
			t.Fatalf("round %d reports staleness under the deadline policy", i)
		}
	}
	if run.FinalAccuracy() < 0.55 {
		t.Fatalf("deadline policy accuracy %.4f too low", run.FinalAccuracy())
	}
}

// TestAsyncPolicyTracksStaleness checks the buffered async policy: once
// the server has stepped, later-arriving updates report positive
// staleness, and the staleness-damped aggregation still learns.
func TestAsyncPolicyTracksStaleness(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := policyConfig(t, fl.PolicyAsync, 11)
	cfg.Rounds = 10
	res, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	run := res.Run
	if len(run.Rounds) != 10 {
		t.Fatalf("recorded %d server steps, want 10", len(run.Rounds))
	}
	if run.PeakStaleness() == 0 {
		t.Fatal("async run never observed a stale update")
	}
	if run.MeanStaleness() <= 0 {
		t.Fatalf("mean staleness %v, want > 0", run.MeanStaleness())
	}
	if run.FinalAccuracy() < 0.55 {
		t.Fatalf("async policy accuracy %.4f too low", run.FinalAccuracy())
	}
	// Virtual time accumulates monotonically.
	last := run.Rounds[len(run.Rounds)-1]
	if last.CumModeledSec <= 0 {
		t.Fatal("async virtual clock did not advance")
	}
}

// stepLog wraps an algorithm and keeps a copy of the model after each
// server step.
type stepLog struct {
	fl.Algorithm
	after map[int][]float64
}

func (l *stepLog) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	l.Algorithm.Aggregate(s, updates)
	l.after[s.Round] = append([]float64(nil), s.W...)
}

// TestAsyncLastStepMatchesLongerRun pins that the run's last async step,
// which defers its re-dispatches until they arrive (and never trains the
// ones that would not), aggregates what any other step would: a 6-step
// FedAvg run ends at the model a 9-step run holds after its sixth step,
// and its records equal that run's first six, abandoned counts and
// measured times aside (TACO reads Rounds in Setup, so it is left out). The heterogeneous fleet and the fault mix make fast,
// retried and duplicated clients arrive again within one step, and a
// 12-update buffer over 8 clients cannot fill without them.
func TestAsyncLastStepMatchesLongerRun(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	faults, err := fault.ParseFaults("crash:0.2,drop:0.15,dup:0.2,slow:0.3:3")
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range []int{3, 12} {
		t.Run(fmt.Sprintf("buffer%d", buf), func(t *testing.T) {
			cfg := policyConfig(t, fl.PolicyAsync, 11)
			cfg.AsyncBuffer, cfg.Faults, cfg.EvalEvery = buf, faults, 1
			run := func(rounds int) (*fl.Result, *stepLog) {
				cfg.Rounds = rounds
				log := &stepLog{Algorithm: baselines.NewFedAvg(), after: map[int][]float64{}}
				res, err := fl.Run(cfg, log, net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				return res, log
			}
			short, _ := run(6)
			long, log := run(9)
			sameParams(t, log.after[5], short.FinalParams)
			for i := range long.Run.Rounds[:6] {
				want, got := long.Run.Rounds[i], short.Run.Rounds[i]
				want.Outcomes[metrics.Abandoned], got.Outcomes[metrics.Abandoned] = 0, 0
				sameRounds(t, []metrics.Round{want}, []metrics.Round{got})
			}
		})
	}
}

// TestAsyncSingleBuffer runs fully-asynchronous aggregation (the
// AsyncBuffer=0 → 1 default): every arrival is a server step.
func TestAsyncSingleBuffer(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := policyConfig(t, fl.PolicyAsync, 11)
	cfg.AsyncBuffer = 0
	res, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Run.Rounds) != cfg.Rounds {
		t.Fatalf("recorded %d server steps, want %d", len(res.Run.Rounds), cfg.Rounds)
	}
}

// TestAllAlgorithmsRunAsync runs every algorithm under buffered async
// aggregation on the heterogeneous fleet — the staleness plumbing must
// not break any method's hook contract.
func TestAllAlgorithmsRunAsync(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	algs := []fl.Algorithm{
		baselines.NewFedAvg(),
		baselines.NewFedProx(0.1),
		baselines.NewFoolsGold(),
		baselines.NewScaffold(1),
		baselines.NewSTEM(0.2),
		baselines.NewFedACG(0.001),
		core.New(core.Recommended()),
	}
	for _, alg := range algs {
		t.Run(alg.Name(), func(t *testing.T) {
			cfg := policyConfig(t, fl.PolicyAsync, 11)
			res, err := fl.Run(cfg, alg, net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if res.Run.Diverged {
				t.Fatalf("%s diverged under async aggregation", alg.Name())
			}
		})
	}
}

// nanAlg diverges on purpose: its aggregation writes NaN into the global
// model at a chosen round.
type nanAlg struct {
	fl.Base
	atRound int
}

func (a *nanAlg) Name() string { return "NaNBomb" }
func (a *nanAlg) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	fl.FedAvgStep(s, updates)
	if s.Round == a.atRound {
		s.W[0] = math.NaN()
	}
}

// TestDivergenceHaltsRun injects a NaN-producing aggregation and checks
// the divergence path under every policy: Diverged/DivergedRound are
// set, the loop halts without panicking, and no further rounds are
// recorded.
func TestDivergenceHaltsRun(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	for _, policy := range []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline, fl.PolicyAsync} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := policyConfig(t, policy, 11)
			res, err := fl.Run(cfg, &nanAlg{atRound: 2}, net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Run.Diverged {
				t.Fatal("Diverged not set after NaN aggregation")
			}
			if res.Run.DivergedRound != 2 {
				t.Fatalf("DivergedRound = %d, want 2", res.Run.DivergedRound)
			}
			if len(res.Run.Rounds) != 2 {
				t.Fatalf("recorded %d rounds after divergence at round 2, want 2", len(res.Run.Rounds))
			}
		})
	}
}

// TestDeviceCountMismatch rejects fleets that do not match the shard
// count.
func TestDeviceCountMismatch(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := quickConfig()
	cfg.Devices = simclock.UniformFleet(5)
	if _, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test); err == nil {
		t.Fatal("expected error for 5 device profiles over 8 shards")
	}
}

// TestSyncHeterogeneousModeledTime checks that a slow device stretches
// the synchronous server's modeled round time by its speed factor.
func TestSyncHeterogeneousModeledTime(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	uniform := quickConfig()
	resU, err := fl.Run(uniform, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	hetero := quickConfig()
	hetero.Devices = simclock.UniformFleet(8)
	hetero.Devices[3].SpeedFactor = 5
	resH, err := fl.Run(hetero, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	u := resU.Run.Rounds[0].SlowestModeledSec
	h := resH.Run.Rounds[0].SlowestModeledSec
	if math.Abs(h-5*u) > 1e-12*u {
		t.Fatalf("slow device modeled time %.9fs, want 5× the uniform %.9fs", h, u)
	}
	// The trajectory itself is unaffected: sync waits for everyone.
	for i := range resU.FinalParams {
		if resU.FinalParams[i] != resH.FinalParams[i] {
			t.Fatal("device profiles changed the synchronous trajectory")
		}
	}
}

// TestAsyncWithFreeloaders checks that freeloaders under the async
// policy arrive on an honest-looking schedule (they masquerade, so they
// cannot flood the buffer with instant replays) and training still
// learns.
func TestAsyncWithFreeloaders(t *testing.T) {
	net, shards, test := testSetup(t, 8)
	cfg := policyConfig(t, fl.PolicyAsync, 11)
	cfg.Rounds = 8
	cfg.Adversaries = []adversary.Spec{adversary.Freeloaders([]int{7})}
	res, err := fl.Run(cfg, baselines.NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	run := res.Run
	if run.Diverged {
		t.Fatal("diverged with one async freeloader")
	}
	if run.FinalAccuracy() < 0.55 {
		t.Fatalf("async freeloader accuracy %.4f too low", run.FinalAccuracy())
	}
	// Honest clients must dominate the aggregated updates: with 8 clients
	// sharing one device speed, each server step's buffer cannot be pure
	// freeloader replays, so the mean train loss stays positive.
	if last := run.Rounds[len(run.Rounds)-1]; last.TrainLoss <= 0 {
		t.Fatalf("train loss %v suggests freeloader-only buffers", last.TrainLoss)
	}
}
