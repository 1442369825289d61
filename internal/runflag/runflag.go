// Package runflag is the one place a command line becomes a federated
// run. flsim and flserver register the same flags (Register) and build
// through the same function (Build), so a run depends only on the flag
// values, never on which command parsed them. That is what gives
// flserver's handshake its meaning: the server and every worker rebuild
// the run from their own flags, and a worker's Hello carries a
// fingerprint of the config and data split it built. A fingerprint only
// proves agreement if both ends build the run the same way; with one
// builder, a mismatch can only mean the flags differ.
package runflag

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/simclock"
)

// Run holds the value of every run flag.
type Run struct {
	Dataset, Alg, Partition, Scale, Policy, Hetero, DType   string
	Compress, Attack, Fault, AggStack, ServerOpt            string
	Clients, Rounds, LocalSteps, Batch, Freeloaders, Buffer int
	CheckpointEvery, Parallelism                            int
	LR, GlobalLR, Phi, Deadline, Quorum, Participation      float64
	Seed                                                    uint64
	Detect, WeightByData                                    bool
}

// Sim is flsim's defaults: the paper's fmnist/TACO setting over the
// label-diversity groups.
var Sim = Run{
	Dataset: "fmnist", Alg: "TACO", Partition: "groups", Scale: "small",
	Policy: "sync", Hetero: "uniform", DType: "f64",
	Clients: 20, Rounds: 25, LocalSteps: 10, Batch: 24, LR: 0.05, Phi: 0.5, Seed: 7,
}

// Server is flserver's defaults: a short wire-safe FedAvg run on adult
// under Dir(0.5) label skew.
var Server = Run{
	Dataset: "adult", Alg: "FedAvg", Partition: "dir", Scale: "small",
	Policy: "sync", Hetero: "uniform", DType: "f64",
	Clients: 20, Rounds: 5, LocalSteps: 10, Batch: 24, LR: 0.05, Phi: 0.5, Seed: 7,
}

// Register declares every run flag on fs with def's values as defaults
// and returns the Run the parsed values land in.
func Register(fs *flag.FlagSet, def Run) *Run {
	r := &Run{}
	fs.StringVar(&r.Dataset, "dataset", def.Dataset, "dataset: "+strings.Join(dataset.Names(), "|"))
	fs.StringVar(&r.Alg, "alg", def.Alg, "algorithm: "+strings.Join(append(experiments.AlgorithmNames(), "FedProx(TACO)", "Scaffold(TACO)"), "|")+" (flserver -mode serve/worker: FedAvg|FedProx)")
	fs.IntVar(&r.Clients, "clients", def.Clients, "number of clients")
	fs.IntVar(&r.Rounds, "rounds", def.Rounds, "communication rounds T")
	fs.IntVar(&r.LocalSteps, "k", def.LocalSteps, "local steps per round K")
	fs.IntVar(&r.Batch, "batch", def.Batch, "mini-batch size s")
	fs.Float64Var(&r.LR, "lr", def.LR, "local learning rate ηl")
	fs.Float64Var(&r.GlobalLR, "glr", def.GlobalLR, "global learning rate ηg (0 = K·ηl)")
	fs.StringVar(&r.Partition, "partition", def.Partition, "partition: groups|dir|iid|natural")
	fs.Float64Var(&r.Phi, "phi", def.Phi, "Dirichlet concentration for -partition dir")
	fs.Uint64Var(&r.Seed, "seed", def.Seed, "random seed")
	fs.StringVar(&r.Scale, "scale", def.Scale, "dataset scale: small|full (-experiment also takes bench|quick)")
	fs.IntVar(&r.Freeloaders, "freeloaders", def.Freeloaders, "replace the last N clients with freeloaders")
	fs.BoolVar(&r.Detect, "detect", def.Detect, "enable TACO freeloader detection")
	fs.BoolVar(&r.WeightByData, "weight-by-data", def.WeightByData, "aggregate with p_i = D_i/D")
	fs.StringVar(&r.Policy, "policy", def.Policy, "aggregation policy: "+strings.Join(fl.PolicyNames(), "|"))
	fs.Float64Var(&r.Deadline, "deadline", def.Deadline, "deadline policy: modeled seconds per round (0 = 1.5× the nominal modeled round)")
	fs.IntVar(&r.Buffer, "buffer", def.Buffer, "async policy: buffered updates per server step (0 = clients/4, min 1)")
	fs.StringVar(&r.Hetero, "hetero", def.Hetero, "device fleet: "+strings.Join(simclock.FleetNames(), "|"))
	fs.StringVar(&r.DType, "dtype", def.DType, "client compute precision: f64|f32 (f32 halves training memory and speeds up local steps; aggregation and metrics stay float64)")
	fs.StringVar(&r.Compress, "compress", def.Compress, "uplink codec: none|topk[:frac]|int8[:chunk] (default dense uploads)")
	fs.StringVar(&r.Attack, "attack", def.Attack, "corrupt clients: kind[:frac[:scale]], kind one of "+strings.Join(adversary.KindNames(), "|"))
	fs.StringVar(&r.Fault, "fault", def.Fault, "inject faults: comma-separated kind[:frac[:param]], kind one of "+strings.Join(fault.KindNames(), "|"))
	fs.StringVar(&r.AggStack, "aggstack", def.AggStack, `robust pre-aggregation stack: "|"-separated kind[:norm] stages, kind one of zeroing|clip (e.g. "zeroing|clip", "clip:5"; no norm = adaptive quantile bound)`)
	fs.StringVar(&r.ServerOpt, "serveropt", def.ServerOpt, "server optimizer: kind[:lr], kind one of fedsgd|adagrad|adam|yogi (default vanilla apply)")
	fs.IntVar(&r.CheckpointEvery, "checkpoint-every", def.CheckpointEvery, "checkpoint the run every N rounds (0 = off; required for servercrash recovery beyond round 0)")
	fs.Float64Var(&r.Quorum, "quorum", def.Quorum, "sync/deadline: commit a round degraded when fewer than this fraction of dispatched updates arrive (0 = off)")
	fs.Float64Var(&r.Participation, "participation", def.Participation, "fraction of clients dispatched per round (0 = all)")
	fs.IntVar(&r.Parallelism, "parallelism", def.Parallelism, "local-training parallelism per process (0 = GOMAXPROCS)")
	return r
}

// Build materialises the run: the config, the algorithm and model, and
// the client shards and test set, split by experiments.Profile.Materialize.
func (r *Run) Build() (*fl.Config, fl.Algorithm, *nn.Network, []*dataset.Dataset, *dataset.Dataset, error) {
	cfg, alg, net, err := r.Spec()
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	kind, ok := map[string]experiments.PartitionKind{
		"groups": experiments.PartGroups, "dir": experiments.PartDirichlet,
		"iid": experiments.PartIID, "natural": experiments.PartNatural,
	}[r.Partition]
	if !ok {
		return nil, nil, nil, nil, nil, fmt.Errorf("unknown partition %q (groups|dir|iid|natural)", r.Partition)
	}
	scale, err := r.ExperimentScale()
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	p := experiments.Profile{Dataset: r.Dataset, Clients: r.Clients, Partition: kind, DirPhi: r.Phi, DataScale: dataset.ScaleSmall}
	if scale == experiments.ScaleFull {
		p.DataScale = dataset.ScaleFull
	}
	_, shards, test, _, err := p.Materialize(r.Seed)
	return cfg, alg, net, shards, test, err
}

// Spec is the half of Build that needs no data: the algorithm, the model,
// and the config with every codec, attack, fault, stack, optimizer, fleet
// and policy default applied. Flags are forwarded as given, so
// Config.Validate rejects contradictory ones (-policy sync -deadline 5)
// instead of them being silently dropped.
func (r *Run) Spec() (*fl.Config, fl.Algorithm, *nn.Network, error) {
	if r.Clients <= 0 {
		return nil, nil, nil, fmt.Errorf("-clients %d must be positive", r.Clients)
	}
	net, err := dataset.Model(r.Dataset)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := &fl.Config{
		Rounds: r.Rounds, LocalSteps: r.LocalSteps, BatchSize: r.Batch, LocalLR: r.LR, GlobalLR: r.GlobalLR,
		Seed: r.Seed, DType: r.DType, WeightByData: r.WeightByData,
		RoundDeadlineSec: r.Deadline, AsyncBuffer: r.Buffer, Quorum: r.Quorum, CheckpointEvery: r.CheckpointEvery,
		ParticipationFraction: r.Participation, Parallelism: r.Parallelism,
	}
	// The nominal modeled round anchors the default deadline and the
	// extreme fleet's availability period.
	nominal := simclock.RoundSeconds(net.GradFlops(r.Batch), r.LocalSteps, simclock.Plain())
	var alg fl.Algorithm
	var errs [8]error
	alg, errs[0] = r.algorithm()
	cfg.Policy, errs[1] = fl.ParsePolicy(r.Policy)
	cfg.Devices, errs[2] = simclock.FleetByName(r.Hetero, r.Clients, nominal, r.Seed)
	cfg.Compress, errs[3] = compress.ParseSpec(r.Compress)
	cfg.Adversaries, errs[4] = r.adversaries()
	cfg.Faults, errs[5] = fault.ParseFaults(r.Fault)
	cfg.AggStack, errs[6] = aggstack.ParseStack(r.AggStack)
	cfg.ServerOpt, errs[7] = aggstack.ParseServerOpt(r.ServerOpt)
	if err := errors.Join(errs[:]...); err != nil {
		return nil, nil, nil, err
	}
	experiments.PolicyDefaults(cfg, nominal, r.Clients)
	return cfg, alg, net, nil
}

// ExperimentScale maps -scale to an experiment profile size: bench,
// quick (alias small) or full. A single run reads only its data size.
func (r *Run) ExperimentScale() (experiments.Scale, error) {
	s, ok := map[string]experiments.Scale{
		"bench": experiments.ScaleBench, "quick": experiments.ScaleQuick,
		"small": experiments.ScaleQuick, "full": experiments.ScaleFull,
	}[r.Scale]
	if !ok {
		return 0, fmt.Errorf("unknown scale %q (small|full, or bench|quick with -experiment)", r.Scale)
	}
	return s, nil
}

func (r *Run) algorithm() (fl.Algorithm, error) {
	if r.Alg == "TACO" && r.Detect {
		cfg := core.Recommended()
		cfg.DetectFreeloaders = true
		return core.New(cfg), nil
	}
	return experiments.NewAlgorithm(r.Alg)
}

// adversaries turns -freeloaders (the last N clients, listed first so
// freeloading settles before anything composes on a client) and -attack
// (adversary.ParseAttack syntax) into adversary specs.
func (r *Run) adversaries() ([]adversary.Spec, error) {
	var specs []adversary.Spec
	if r.Freeloaders > 0 {
		if r.Freeloaders >= r.Clients {
			return nil, fmt.Errorf("need at least one honest client")
		}
		ids := make([]int, r.Freeloaders)
		for i := range ids {
			ids[i] = r.Clients - r.Freeloaders + i
		}
		specs = append(specs, adversary.Freeloaders(ids))
	}
	if r.Attack == "" {
		return specs, nil
	}
	spec, err := adversary.ParseAttack(r.Attack)
	if err != nil {
		return nil, err
	}
	return append(specs, spec), nil
}
