package taco_test

import (
	"math"
	"testing"

	taco "repro"
)

// TestF32PrecisionDrift is the precision-drift regression for the fp32
// compute path (TrainConfig.DType "f32"): on both quickstart workloads —
// the adult MLP and the FMNIST CNN — training the same federation with
// TACO in fp32 must land within half an accuracy point of the float64
// run, and so must STEM on adult, whose second gradient per step runs on
// the fp32 engine too. The runs are deterministic, so this pins the drift
// itself, not a noise band: a kernel or widening-boundary regression that
// bends the fp32 trajectory shows up as a fixed, reproducible gap.
func TestF32PrecisionDrift(t *testing.T) {
	const maxDrift = 0.005 // 0.5 accuracy points
	adult := func(tr *taco.Data) ([]*taco.Data, error) { return taco.PartitionDirichlet(tr, 8, 0.5, 2) }
	adultCfg := taco.TrainConfig{Rounds: 6, LocalSteps: 5, BatchSize: 16, LocalLR: 0.03, Seed: 3}
	cases := []struct {
		name, dataset string
		alg           func() taco.Algorithm
		shard         func(train *taco.Data) ([]*taco.Data, error)
		cfg           taco.TrainConfig
	}{
		{name: "adult", dataset: "adult", alg: taco.NewTACO, shard: adult, cfg: adultCfg},
		{name: "adult-STEM", dataset: "adult", alg: taco.NewSTEM, shard: adult, cfg: adultCfg},
		{
			name:    "fmnist",
			dataset: "fmnist",
			alg:     taco.NewTACO,
			shard:   func(tr *taco.Data) ([]*taco.Data, error) { return taco.PartitionGroups(tr, 20, 2) },
			cfg:     taco.TrainConfig{Rounds: 10, LocalSteps: 10, BatchSize: 24, LocalLR: 0.05, Seed: 7},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			train, test, err := taco.Dataset(c.dataset, taco.ScaleSmall, 1)
			if err != nil {
				t.Fatal(err)
			}
			model, err := taco.ModelFor(c.dataset)
			if err != nil {
				t.Fatal(err)
			}
			shards, err := c.shard(train)
			if err != nil {
				t.Fatal(err)
			}
			acc := func(dtype string) float64 {
				cfg := c.cfg
				cfg.DType = dtype
				res, err := taco.Train(cfg, c.alg(), model, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				return res.Run.FinalAccuracy()
			}
			a64 := acc("f64")
			a32 := acc("f32")
			drift := math.Abs(a64 - a32)
			t.Logf("%s: f64 %.4f, f32 %.4f, drift %.4f", c.name, a64, a32, drift)
			if drift > maxDrift {
				t.Fatalf("fp32 accuracy drifts %.4f from float64 (f64 %.4f, f32 %.4f), budget %.4f",
					drift, a64, a32, maxDrift)
			}
		})
	}
}
