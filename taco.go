// Package taco is the public API of this repository: a from-scratch Go
// reproduction of "TACO: Tackling Over-correction in Federated Learning
// with Tailored Adaptive Correction" (Liu et al., ICDCS 2025).
//
// The package re-exports the pieces a downstream user needs to run
// federated training with TACO or any of the paper's six baselines on the
// built-in synthetic datasets, or on their own data:
//
//	train, test, _ := taco.Dataset("fmnist", taco.ScaleSmall, 1)
//	model, _ := taco.ModelFor("fmnist")
//	shards, _ := taco.PartitionGroups(train, 20, 2)
//	result, _ := taco.Train(taco.TrainConfig{
//		Rounds: 50, LocalSteps: 100, BatchSize: 64, LocalLR: 0.01, Seed: 7,
//	}, taco.NewTACO(), model, shards, test)
//	fmt.Println(result.Run.FinalAccuracy())
//
// Everything underneath lives in internal/ packages; see DESIGN.md for the
// system inventory and results/bench/ for the reproduced evaluation.
package taco

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
)

// Re-exported kinds. Aliases keep the public surface thin while the
// implementation stays in internal packages.
type (
	// TrainConfig configures the federated round loop (T, K, s, ηl, ηg).
	TrainConfig = fl.Config
	// Algorithm is the hook set an FL method implements.
	Algorithm = fl.Algorithm
	// Result carries the metric history and final model of a run.
	Result = fl.Result
	// Data is a flat supervised dataset.
	Data = dataset.Dataset
	// Network is a neural-network architecture.
	Network = nn.Network
	// TACOConfig holds TACO's hyper-parameters (γ, κ, λ, stabilizers).
	TACOConfig = core.Config
	// Scale selects synthetic dataset sizes.
	Scale = dataset.Scale
)

// Dataset scale constants.
const (
	// ScaleSmall is the test/bench dataset profile.
	ScaleSmall = dataset.ScaleSmall
	// ScaleFull is the larger CLI profile.
	ScaleFull = dataset.ScaleFull
)

// DatasetNames lists the eight built-in synthetic datasets.
func DatasetNames() []string { return dataset.Names() }

// Dataset builds a named synthetic dataset's train/test splits.
func Dataset(name string, scale Scale, seed uint64) (train, test *Data, err error) {
	return dataset.Standard(name, scale, seed)
}

// ModelFor returns the paper's model family for a named dataset.
func ModelFor(name string) (*Network, error) { return dataset.Model(name) }

// Train runs federated training and returns the metric history, the final
// output model, and any expelled clients. It is deterministic for a fixed
// TrainConfig.Seed at any parallelism level.
func Train(cfg TrainConfig, alg Algorithm, net *Network, shards []*Data, test *Data) (*Result, error) {
	return fl.Run(cfg, alg, net, shards, test)
}

// NewTACO returns the paper's algorithm with this repository's
// recommended configuration (paper defaults plus reproduction-scale
// stabilizers). Use NewTACOWith for full control.
func NewTACO() Algorithm { return core.New(core.Recommended()) }

// NewTACOWith returns TACO with an explicit configuration; zero fields
// select the paper's defaults (γ=1/K, κ=0.6, λ=T/5).
func NewTACOWith(cfg TACOConfig) Algorithm { return core.New(cfg) }

// Baseline constructors, using the paper's default hyper-parameters.
func NewFedAvg() Algorithm    { return baselines.NewFedAvg() }
func NewFedProx() Algorithm   { return baselines.NewFedProx(0.1) }
func NewFoolsGold() Algorithm { return baselines.NewFoolsGold() }
func NewScaffold() Algorithm  { return baselines.NewScaffold(1) }
func NewSTEM() Algorithm      { return baselines.NewSTEM(0.2) }
func NewFedACG() Algorithm    { return baselines.NewFedACG(0.001) }

// NewFedProxTACO and NewScaffoldTACO are the Fig. 6 hybrids: prior methods
// with TACO's tailored coefficients replacing their uniform ones.
func NewFedProxTACO() Algorithm  { return core.NewFedProxTACO(0.1) }
func NewScaffoldTACO() Algorithm { return core.NewScaffoldTACO() }

// PartitionIID splits train uniformly across n clients.
func PartitionIID(train *Data, n int, seed uint64) ([]*Data, error) {
	p, err := partition.IID(train, n, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return p.Shards(train), nil
}

// PartitionDirichlet splits train across n clients with Dir(phi) label
// skew, the paper's main non-IID regime.
func PartitionDirichlet(train *Data, n int, phi float64, seed uint64) ([]*Data, error) {
	p, err := partition.Dirichlet(train, n, phi, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return p.Shards(train), nil
}

// PartitionGroups splits train across n clients using the paper's
// synthetic label-diversity groups (A: 10%, B: 20%, C: 50% of labels).
func PartitionGroups(train *Data, n int, seed uint64) ([]*Data, error) {
	p, _, err := partition.Groups(train, partition.PaperGroups(n), rng.New(seed))
	if err != nil {
		return nil, err
	}
	return p.Shards(train), nil
}
