// Package experiments configures and runs every reproduced table and
// figure of the paper. Each experiment has an id (table5, fig2, ...). Most
// are a Grid: axes whose cross product is a set of training runs, each
// cached by the Runner (so experiments sharing runs — Table V and Fig. 2,
// 4, 5 and 6 — compute them once) and formatted into the paper's rows or
// series via internal/report. Table I, II and III are written by hand.
package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
)

// Scale selects the experiment size: ScaleBench for the benchmark
// harness, ScaleQuick for the CLI default (the canonical EXPERIMENTS.md
// numbers, sized for a single CPU core), ScaleFull for longer CLI runs.
type Scale int

const (
	// ScaleBench is the reduced profile used by the benchmark harness: it
	// regenerates every artifact's full pipeline at roughly a third of the
	// quick profile's training budget.
	ScaleBench Scale = iota + 1
	// ScaleQuick is the CI/CLI default profile (the canonical numbers in
	// EXPERIMENTS.md).
	ScaleQuick
	// ScaleFull is the larger CLI profile.
	ScaleFull
)

// PartitionKind names the non-IID regime of a profile.
type PartitionKind string

const (
	// PartGroups is the paper's synthetic label-diversity grouping.
	PartGroups PartitionKind = "groups"
	// PartDirichlet is Dir(φ) label skew.
	PartDirichlet PartitionKind = "dirichlet"
	// PartIID deals samples out uniformly at random.
	PartIID PartitionKind = "iid"
	// PartNatural partitions by the dataset's natural groups (speakers).
	PartNatural PartitionKind = "natural"
)

// Profile fixes one dataset's training setup, mirroring the hyper-
// parameter table of Section V-A at reproduction scale.
type Profile struct {
	Dataset    string
	Clients    int
	Rounds     int
	LocalSteps int
	BatchSize  int
	LocalLR    float64
	// TargetAcc is the dataset's target accuracy for the rounds-to-
	// accuracy and time-to-accuracy columns.
	TargetAcc float64
	Partition PartitionKind
	// DirPhi is the Dirichlet concentration for PartDirichlet.
	DirPhi float64
	// DataScale picks the synthetic dataset size.
	DataScale dataset.Scale
	// FleetMultiplier tiles the partitioned shards to simulate fleets far
	// larger than the dataset can uniquely shard: Clients distinct shards
	// are partitioned once and replicated (by pointer, so data stays
	// O(Clients)) until the fleet has Clients×FleetMultiplier clients.
	// Replicas share bytes but not behavior — every client draws its own
	// sampling stream — which is what the 100k-client scale study runs on.
	// 0 or 1 means no tiling.
	FleetMultiplier int
}

// SweepDatasets lists the six datasets of Table V in paper order.
func SweepDatasets() []string {
	return []string{"adult", "fmnist", "svhn", "cifar10", "cifar100", "shakespeare"}
}

// ProfileFor returns the named dataset's profile at the given scale. The
// relative settings mirror the paper: SVHN and CIFAR-10 get the most local
// work (the paper uses K=1000 there), CIFAR-100 the big model, Shakespeare
// the LSTM with ηl = 1.
func ProfileFor(name string, scale Scale) (Profile, error) {
	p := Profile{
		Dataset:    name,
		Clients:    20,
		BatchSize:  24,
		LocalLR:    0.05,
		DataScale:  dataset.ScaleSmall,
		Partition:  PartGroups,
		LocalSteps: 10,
	}
	switch name {
	case "mnist":
		p.Rounds, p.TargetAcc = 20, 0.85
	case "fmnist":
		p.Rounds, p.TargetAcc = 25, 0.72
	case "femnist":
		p.Rounds, p.TargetAcc = 20, 0.55
		p.Partition, p.DirPhi = PartDirichlet, 0.2
	case "svhn":
		p.Rounds, p.LocalSteps, p.TargetAcc = 25, 15, 0.60
		p.LocalLR = 0.08
	case "cifar10":
		p.Rounds, p.LocalSteps, p.TargetAcc = 25, 15, 0.55
	case "cifar100":
		p.Rounds, p.LocalSteps, p.BatchSize, p.TargetAcc = 15, 8, 16, 0.25
		p.Partition, p.DirPhi = PartDirichlet, 0.5
	case "adult":
		p.Rounds, p.TargetAcc = 20, 0.78
		p.Partition, p.DirPhi = PartDirichlet, 0.5
	case "shakespeare":
		p.Rounds, p.LocalSteps, p.LocalLR, p.TargetAcc = 20, 12, 1.0, 0.40
		p.Partition = PartNatural
	default:
		return Profile{}, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	switch scale {
	case ScaleFull:
		p.Rounds *= 2
		p.DataScale = dataset.ScaleFull
	case ScaleBench:
		p.Rounds = max(p.Rounds/2, 4)
		p.LocalSteps = max(p.LocalSteps*2/3, 3)
	}
	return p, nil
}

// Materialize builds the profile's client shards and test set, plus the
// training config the profile fixes. It is the repository's one
// partition switch: experiments and the flsim/flserver command lines
// (internal/runflag) all split data here.
func (p Profile) Materialize(seed uint64) (*fl.Config, []*dataset.Dataset, *dataset.Dataset, []int, error) {
	train, test, err := dataset.Standard(p.Dataset, p.DataScale, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	r := rng.New(seed).Derive("partition", 0)
	var (
		part    *partition.Partition
		groupOf []int
	)
	switch p.Partition {
	case PartGroups:
		part, groupOf, err = partition.Groups(train, partition.PaperGroups(p.Clients), r)
	case PartDirichlet:
		part, err = partition.Dirichlet(train, p.Clients, p.DirPhi, r)
	case PartIID:
		part, err = partition.IID(train, p.Clients, r)
	case PartNatural:
		part, err = partition.ByNaturalGroups(train, p.Clients, r)
	default:
		err = fmt.Errorf("experiments: unknown partition kind %q", p.Partition)
	}
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cfg := &fl.Config{
		Rounds:     p.Rounds,
		LocalSteps: p.LocalSteps,
		BatchSize:  p.BatchSize,
		LocalLR:    p.LocalLR,
		Seed:       seed,
	}
	shards := part.Shards(train)
	if p.FleetMultiplier > 1 {
		tiled := make([]*dataset.Dataset, 0, len(shards)*p.FleetMultiplier)
		for rep := 0; rep < p.FleetMultiplier; rep++ {
			tiled = append(tiled, shards...)
		}
		shards = tiled
	}
	return cfg, shards, test, groupOf, nil
}

// PolicyDefaults fills the scheduling knobs a run left at zero: the
// deadline policy cuts rounds at 1.5× the nominal modeled round (which
// admits mildly slow devices and cuts off the hard stragglers), and the
// async policy steps the server every quarter of the clients (min 1).
func PolicyDefaults(cfg *fl.Config, nominal float64, clients int) {
	if cfg.Policy == fl.PolicyDeadline && cfg.RoundDeadlineSec == 0 {
		cfg.RoundDeadlineSec = 1.5 * nominal
	}
	if cfg.Policy == fl.PolicyAsync && cfg.AsyncBuffer == 0 {
		cfg.AsyncBuffer = max(clients/4, 1)
	}
}

// Model returns the dataset's model architecture.
func (p Profile) Model() (*nn.Network, error) {
	return dataset.Model(p.Dataset)
}
