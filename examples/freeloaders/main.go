// Freeloaders demonstrates TACO's freeloader detection (Section IV-A,
// Eq. 10): 8 of 20 clients replay the previous global gradient instead of
// training. Their correction coefficients α_i stand far above honest
// clients', so the κ-threshold inspection expels them.
package main

import (
	"fmt"
	"log"
	"sort"

	taco "repro"
	"repro/internal/adversary"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	train, test, err := taco.Dataset("fmnist", taco.ScaleSmall, 1)
	if err != nil {
		return err
	}
	model, err := taco.ModelFor("fmnist")
	if err != nil {
		return err
	}
	shards, err := taco.PartitionGroups(train, 20, 2)
	if err != nil {
		return err
	}

	// Spread the lazy clients across the label-diversity groups, so the
	// honest federation keeps members of every group.
	freeloaders := []int{1, 3, 6, 8, 11, 13, 16, 18}
	cfg := taco.TrainConfig{
		Rounds:      20,
		LocalSteps:  10,
		BatchSize:   24,
		LocalLR:     0.05,
		Seed:        7,
		Adversaries: []adversary.Spec{adversary.Freeloaders(freeloaders)},
	}

	alg := taco.NewTACOWith(taco.TACOConfig{
		DetectFreeloaders: true,
		Kappa:             0.6, // suspicion threshold κ
		MaxStrikes:        4,   // λ = T/5
		AggFloor:          0.2,
		AlphaSmoothing:    0.5,
	})
	res, err := taco.Train(cfg, alg, model, shards, test)
	if err != nil {
		return err
	}

	fmt.Printf("planted freeloaders: %v\n", freeloaders)
	expelled := make([]int, 0, len(res.Expelled))
	for id := range res.Expelled {
		expelled = append(expelled, id)
	}
	sort.Ints(expelled)
	fmt.Printf("expelled clients:    %v\n", expelled)

	planted := make(map[int]bool, len(freeloaders))
	for _, id := range freeloaders {
		planted[id] = true
	}
	tp, fp := 0, 0
	for _, id := range expelled {
		if planted[id] {
			tp++
		} else {
			fp++
		}
	}
	fmt.Printf("true positive rate:  %.0f%% (%d/%d)\n", 100*float64(tp)/float64(len(freeloaders)), tp, len(freeloaders))
	fmt.Printf("false positive rate: %.0f%% (%d/%d)\n", 100*float64(fp)/float64(20-len(freeloaders)), fp, 20-len(freeloaders))
	fmt.Printf("final accuracy:      %.4f\n", res.Run.FinalAccuracy())
	return nil
}
