// Command flsim runs one federated-learning simulation with explicit
// knobs: dataset, algorithm, partition, and engine parameters. With
// -experiment it instead runs a registered experiment grid (or all of
// them) at -scale bench|quick|full.
//
// Usage:
//
//	flsim -dataset fmnist -alg TACO -clients 20 -rounds 25 -k 10 -lr 0.05
//	flsim -dataset adult -alg Scaffold -partition dir -phi 0.1
//	flsim -dataset fmnist -alg TACO -freeloaders 8 -detect
//	flsim -dataset adult -alg FG -attack signflip:0.3
//	flsim -dataset fmnist -alg TACO -compress topk:0.01
//	flsim -dataset adult -alg TACO -fault servercrash:10 -checkpoint-every 5
//	flsim -dataset adult -alg FedAvg -attack scale:0.25:20 -aggstack zeroing|clip -serveropt adam
//	flsim -experiment table5 -scale bench -seed 1
//	flsim -experiment all -scale full
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/adversary"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/runflag"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(1)
	}
}

func run() error {
	r := runflag.Register(flag.CommandLine, runflag.Sim)
	var (
		experiment = flag.String("experiment", "", "run a registered experiment (or all), write results/<id>.txt, and exit; ids: "+strings.Join(experiments.IDs(), "|"))
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a post-run heap profile to this file")
	)
	flag.Parse()

	if *experiment != "" {
		// An experiment fixes its own grid: any other explicitly set flag
		// would be silently ignored, so reject the combination instead.
		allowed := map[string]bool{"experiment": true, "scale": true, "seed": true}
		var conflict []string
		flag.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-experiment runs a fixed grid; incompatible with %s", strings.Join(conflict, " "))
		}
		scale, err := r.ExperimentScale()
		if err != nil {
			return err
		}
		ids := []string{*experiment}
		if *experiment == "all" {
			ids = experiments.IDs()
		}
		for _, id := range ids {
			if err := runExperiment(id, scale, r.Seed); err != nil {
				return err
			}
		}
		return nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			// Collect first so the profile reflects live (retained) memory
			// — the slot-pool footprint — rather than GC garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "flsim: memprofile:", err)
			}
			f.Close()
		}()
	}

	cfg, alg, net, shards, test, err := r.Build()
	if err != nil {
		return err
	}
	var attack *adversary.Spec
	if r.Attack != "" {
		attack = &cfg.Adversaries[len(cfg.Adversaries)-1]
		fmt.Printf("attack %s (scale %v): corrupt clients %v\n", attack.Kind, attack.Scale, attack.Members(r.Clients))
	}
	res, err := fl.Run(*cfg, alg, net, shards, test)
	if err != nil {
		return err
	}

	run := res.Run
	accs := make([]float64, len(run.Rounds))
	for i, rec := range run.Rounds {
		fmt.Printf("round %3d  acc %.4f  top %.3f  loss %.4f  t_model %.3fs  t_real %.3fs",
			rec.Index+1, rec.Accuracy, rec.TopClassShare, rec.TrainLoss, rec.SlowestModeledSec, rec.SlowestMeasuredSec)
		if cfg.Policy != fl.PolicySync {
			fmt.Printf("  stale %.2f/%d", rec.MeanStaleness, rec.MaxStaleness)
		}
		for o, n := range rec.Outcomes {
			if n > 0 {
				fmt.Printf("  %v %d", metrics.Outcome(o), n)
			}
		}
		if rec.Degraded {
			fmt.Printf("  DEGRADED")
		}
		if rec.ReassignedDispatches > 0 || rec.WorkerReconnects > 0 {
			fmt.Printf("  re %d  rc %d", rec.ReassignedDispatches, rec.WorkerReconnects)
		}
		fmt.Println()
		accs[i] = rec.Accuracy
	}
	fmt.Printf("\n%s on %s: final %.4f, best %.4f  %s\n",
		alg.Name(), r.Dataset, run.FinalAccuracy(), run.BestAccuracy(), report.Sparkline(accs, 0, 1))
	fmt.Printf("uplink: %.2f MiB (codec %s, ratio %.1fx)\n",
		float64(run.TotalUplinkBytes())/(1<<20), cfg.Compress, run.MeanCompressionRatio())
	if cfg.Policy != fl.PolicySync && len(run.Rounds) > 0 {
		fmt.Printf("policy %s (fleet %s): t_wall %.3fs, cut %d, mean staleness %.2f (peak %d)\n",
			cfg.Policy, r.Hetero, run.Rounds[len(run.Rounds)-1].CumModeledSec,
			run.Total(metrics.Cut), run.MeanStaleness(), run.PeakStaleness())
	}
	if attack != nil {
		fmt.Printf("attack %s: mean corrupt weight mass %.3f (head-count share %.3f)\n",
			attack.Kind, run.MeanCorruptWeight(), float64(len(attack.Members(r.Clients)))/float64(r.Clients))
	}
	printTallies(cfg, run)
	if run.Diverged {
		fmt.Printf("DIVERGED at round %d (the paper's '×' outcome)\n", run.DivergedRound)
	}
	if len(res.Expelled) > 0 {
		ids := make([]int, 0, len(res.Expelled))
		for id := range res.Expelled {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Printf("expelled clients: %v\n", ids)
	}
	return nil
}

// runExperiment runs one registered experiment, printing each artifact
// and persisting it under results/<id>.txt so the grid's report survives.
func runExperiment(id string, scale experiments.Scale, seed uint64) error {
	runner := experiments.NewRunner(scale)
	runner.Seed = seed
	runner.Progress = os.Stderr
	artifacts, err := experiments.Run(id, runner)
	if err != nil {
		return err
	}
	var rendered strings.Builder
	out := io.MultiWriter(os.Stdout, &rendered)
	for _, a := range artifacts {
		a.Render(out)
		fmt.Fprintln(out)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	path := filepath.Join("results", id+".txt")
	if err := os.WriteFile(path, []byte(rendered.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// printTallies reports what became of the run's flights — one outcome
// line summed from the per-round outcome arrays — and what the
// aggregation stack, the server optimizer and the recovery machinery did,
// and surfaces a halt loudly: a halted run's final accuracy is the
// accuracy at the halt, not at the configured horizon.
func printTallies(cfg *fl.Config, run *metrics.Run) {
	fmt.Print("outcomes:")
	for o := metrics.Outcome(0); o < metrics.NumOutcomes; o++ {
		if n := run.Total(o); n > 0 {
			fmt.Printf(" %v %d", o, n)
		}
	}
	if n := run.DegradedRounds(); n > 0 {
		fmt.Printf(", degraded rounds %d", n)
	}
	fmt.Println()
	for i := len(run.Rounds) - 1; i >= 0; i-- {
		if b := run.Rounds[i].ClipNorm; b > 0 {
			fmt.Printf("aggstack %s: final clip bound %.4g\n", cfg.AggStack, b)
			break
		}
	}
	if !cfg.ServerOpt.None() {
		fmt.Printf("server optimizer %s\n", cfg.ServerOpt)
	}
	if re, rc := run.TotalReassignedDispatches(), run.TotalWorkerReconnects(); re > 0 || rc > 0 {
		fmt.Printf("failover: reassigned %d in-flight dispatch(es), re-admitted %d worker reconnect(s)\n", re, rc)
	}
	if run.RecoveredRounds > 0 {
		fmt.Printf("server crash: recovered %d round(s) from checkpoint (bit-identical replay)\n", run.RecoveredRounds)
	}
	if run.Rollbacks > 0 {
		fmt.Printf("divergence guard: rolled back to checkpoint %d time(s)\n", run.Rollbacks)
	}
	if run.HaltReason != "" {
		fmt.Printf("HALTED at round %d: %s\n", run.HaltRound+1, run.HaltReason)
	}
}
