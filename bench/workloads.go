package main

import (
	"fmt"
	"runtime"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// workload is one closed-loop input set: the server dispatches round t+1
// only after round t commits, so the cohort size is the concurrency. The
// literals here (rounds per episode, target accuracy) are the same on a
// parent commit and a change; README.md records how they were sized.
type workload struct {
	name string
	// rounds is the fixed length of one episode (async: server steps),
	// sized so an episode's timed window is about 3 s on the seed commit
	// at 2 cores.
	rounds int
	// targetAcc is the accuracy time_to_target_s waits for: a level every
	// seed reaches on the steep part of its curve, where the crossing
	// round moves least from seed to seed.
	targetAcc float64
	// problemSeed pins the learning problem: dataset instance, partition
	// and Config.Seed (initial model, batches, participation, fault and
	// quantization streams). --seed only jitters the training features
	// (see jitter), because reseeding the problem itself moves the round
	// at which a run reaches its target by up to 10× (README.md, "Seeds").
	problemSeed uint64
	// gemm is the model's largest matrix product (m, k, n) at the
	// workload's batch size, for the vecmath probe.
	gemm [3]int
	// wire runs fl.Serve + 2 workers over loopback instead of fl.Run.
	wire bool
	// severs makes the bench cut worker 1's connection after it has read
	// its Dispatch for rounds ⌈.25T⌉, ⌈.5T⌉, ⌈.75T⌉ and re-dial at once.
	severs bool
	build  func(w *workload, seed uint64, rounds int) (*instance, error)
}

// instance is a workload materialized from one seed: everything fl.Run or
// fl.Serve needs, plus the shape facts the layer probes and the metric
// definitions use.
type instance struct {
	cfg     fl.Config
	algName string
	net     *nn.Network
	shards  []*dataset.Dataset
	test    *dataset.Dataset
	profile experiments.Profile
	// cohort is the nominal number of client updates one round dispatches.
	cohort int
}

func (in *instance) newAlg() fl.Algorithm {
	alg, err := experiments.NewAlgorithm(in.algName)
	if err != nil {
		panic(err) // algName is a literal of this file
	}
	return alg
}

const wireWorkers = 2

// The fmnist CNN's largest product is its second convolution as an
// im2col GEMM: 12 filters × (6·3·3) taps × (batch 24 · 4·4 positions).
// The adult MLP's is its first dense layer: batch × 20 features × 32.
var workloads = []workload{
	{name: "sim_fmnist_taco", rounds: 50, targetAcc: 0.80, problemSeed: 1, gemm: [3]int{12, 54, 384}, build: buildFmnistTaco},
	{name: "fleet100k_adult_fedavg", rounds: 1700, targetAcc: 0.80, problemSeed: 3, gemm: [3]int{24, 20, 32}, build: buildFleet100k},
	{name: "sim_adult_async_mixed", rounds: 900, targetAcc: 0.79, problemSeed: 3, gemm: [3]int{16, 20, 32}, build: buildAsyncMixed},
	{name: "wire_adult_dense", rounds: 400, targetAcc: 0.80, problemSeed: 3, gemm: [3]int{8, 20, 32}, wire: true, build: buildWireDense},
	{name: "wire_adult_topk_failover", rounds: 120, targetAcc: 0.80, problemSeed: 3, gemm: [3]int{8, 20, 32}, wire: true, severs: true, build: buildWireTopK},
}

// jitterStd is the standard deviation of the seed-driven feature noise,
// about 1 % of a feature's own spread: enough to change every gradient and
// the final hash, too little to move the learning curve.
const jitterStd = 0.01

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// jitter adds the seed's feature noise to every distinct training shard
// (a tiled fleet repeats shard pointers).
func jitter(shards []*dataset.Dataset, seed uint64) {
	r := rng.New(seed).Derive("jitter", 0)
	seen := make(map[*dataset.Dataset]bool, len(shards))
	for _, sh := range shards {
		if seen[sh] {
			continue
		}
		seen[sh] = true
		for i := range sh.X {
			sh.X[i] += r.Normal(0, jitterStd)
		}
	}
}

// materialize builds a profile's data, partition and model, and returns
// them with the profile's config as the starting point.
func materialize(w *workload, p experiments.Profile, seed uint64, rounds int, algName string) (*instance, error) {
	p.Rounds = rounds
	cfg, shards, test, _, err := p.Materialize(w.problemSeed)
	if err != nil {
		return nil, err
	}
	jitter(shards, seed)
	network, err := p.Model()
	if err != nil {
		return nil, err
	}
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	return &instance{cfg: *cfg, algName: algName, net: network, shards: shards, test: test, profile: p, cohort: len(shards)}, nil
}

// The paper's own setting: 20 clients, label-diversity groups, TACO with
// its recommended γ/κ/λ, K=10 local steps of a small CNN.
func buildFmnistTaco(w *workload, seed uint64, rounds int) (*instance, error) {
	p, err := experiments.ProfileFor("fmnist", experiments.ScaleQuick)
	if err != nil {
		return nil, err
	}
	return materialize(w, p, seed, rounds, "TACO")
}

// 100 Dirichlet shards tiled ×1000: 100 000 client identities, 10 updates
// per round. Training is a small share of the round; the O(fleet) walks,
// per-round allocations and the full test-set eval dominate.
func buildFleet100k(w *workload, seed uint64, rounds int) (*instance, error) {
	p, err := experiments.ProfileFor("adult", experiments.ScaleQuick)
	if err != nil {
		return nil, err
	}
	p.Clients, p.FleetMultiplier = 100, 1000
	p.Partition, p.DirPhi = experiments.PartDirichlet, 0.3
	p.LocalSteps = 3
	// A tenth of the profile's step size, so that the target is crossed at
	// round 455, a quarter into the episode. At ηl .05 it is crossed at
	// round 53, inside the first 0.1 s of the process, and
	// time_to_target_s reads heap growth and scheduling hiccups.
	p.LocalLR = 0.005
	in, err := materialize(w, p, seed, rounds, "FedAvg")
	if err != nil {
		return nil, err
	}
	in.cfg.ParticipationFraction = 0.0001
	in.cohort = 10
	return in, nil
}

// The same scheduler used the other way: event queue, staleness, retries,
// dedup, stage verdicts, FedAdam, error-feedback residuals, the f32 bridge
// and checkpoint encoding, all at once.
func buildAsyncMixed(w *workload, seed uint64, rounds int) (*instance, error) {
	p, err := experiments.ProfileFor("adult", experiments.ScaleQuick)
	if err != nil {
		return nil, err
	}
	p.Clients, p.LocalSteps, p.BatchSize = 200, 3, 16
	in, err := materialize(w, p, seed, rounds, "TACO")
	if err != nil {
		return nil, err
	}
	c := &in.cfg
	c.Policy, c.AsyncBuffer = fl.PolicyAsync, 20
	in.cohort = c.AsyncBuffer
	nominal := simclock.RoundSeconds(in.net.GradFlops(c.BatchSize), c.LocalSteps, simclock.Plain())
	if c.Devices, err = simclock.FleetByName("extreme", p.Clients, nominal, w.problemSeed); err != nil {
		return nil, err
	}
	if c.Faults, err = fault.ParseFaults("crash:0.1,drop:0.1,dup:0.05"); err != nil {
		return nil, err
	}
	if c.Compress, err = compress.ParseSpec("int8"); err != nil {
		return nil, err
	}
	if c.AggStack, err = aggstack.ParseStack("zeroing|clip"); err != nil {
		return nil, err
	}
	// adam:0.001 where ISSUE 11 has 0.01, for the same reason as
	// fleet100k's step size: the target is crossed at step 183, 0.5 s in
	// (at 0.01: step 40, on a transient peak).
	if c.ServerOpt, err = aggstack.ParseServerOpt("adam:0.001"); err != nil {
		return nil, err
	}
	attack, err := adversary.ParseAttack("signflip:0.1")
	if err != nil {
		return nil, err
	}
	c.Adversaries = []adversary.Spec{attack}
	c.DType = "f32"
	c.CheckpointEvery = 50
	return in, nil
}

// Wire-bound: 500 dense f64 uploads and a dense global in every Dispatch
// per round; training is under a third of the round.
func buildWireDense(w *workload, seed uint64, rounds int) (*instance, error) {
	return buildWire(w, seed, rounds, 1)
}

func buildWire(w *workload, seed uint64, rounds, localSteps int) (*instance, error) {
	p, err := experiments.ProfileFor("adult", experiments.ScaleQuick)
	if err != nil {
		return nil, err
	}
	p.Clients, p.LocalSteps, p.BatchSize = 1000, localSteps, 8
	in, err := materialize(w, p, seed, rounds, "FedAvg")
	if err != nil {
		return nil, err
	}
	in.cfg.ParticipationFraction = 0.5
	in.cohort = 500
	return in, nil
}

// wire_adult_dense with sparse payloads and error feedback, plus three
// worker losses whose history replay grows with the round index.
func buildWireTopK(w *workload, seed uint64, rounds int) (*instance, error) {
	in, err := buildWire(w, seed, rounds, 2)
	if err != nil {
		return nil, err
	}
	if in.cfg.Compress, err = compress.ParseSpec("topk:0.05"); err != nil {
		return nil, err
	}
	return in, nil
}
