// Command flsim runs one federated-learning simulation with explicit
// knobs: dataset, algorithm, partition, and engine parameters.
//
// Usage:
//
//	flsim -dataset fmnist -alg TACO -clients 20 -rounds 25 -k 10 -lr 0.05
//	flsim -dataset adult -alg Scaffold -partition dir -phi 0.1
//	flsim -dataset fmnist -alg TACO -freeloaders 8 -detect
//	flsim -dataset adult -alg TACO -clients 1000 -partition dir -phi 0.3 -memprofile heap.pprof
//	flsim -dataset adult -alg FG -attack signflip -attack-frac 0.3
//	flsim -dataset fmnist -alg TACO -compress topk -topk 0.01
//	flsim -dataset adult -alg TACO -fault crash:0.2,slow:0.3:4 -quorum 0.5
//	flsim -dataset adult -alg TACO -fault servercrash:10 -checkpoint-every 5
//	flsim -dataset adult -alg FedAvg -attack scale:0.25:20 -aggstack zeroing|clip -serveropt adam
//	flsim -experiment fedopt
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/simclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dsName      = flag.String("dataset", "fmnist", "dataset: "+strings.Join(dataset.Names(), "|"))
		algName     = flag.String("alg", "TACO", "algorithm: "+strings.Join(append(experiments.AlgorithmNames(), "FedProx(TACO)", "Scaffold(TACO)"), "|"))
		clients     = flag.Int("clients", 20, "number of clients")
		rounds      = flag.Int("rounds", 25, "communication rounds T")
		localSteps  = flag.Int("k", 10, "local steps per round K")
		batch       = flag.Int("batch", 24, "mini-batch size s")
		lr          = flag.Float64("lr", 0.05, "local learning rate ηl")
		globalLR    = flag.Float64("glr", 0, "global learning rate ηg (0 = K·ηl)")
		partKind    = flag.String("partition", "groups", "partition: groups|dir|iid|natural")
		phi         = flag.Float64("phi", 0.5, "Dirichlet concentration for -partition dir")
		seed        = flag.Uint64("seed", 7, "random seed")
		scaleName   = flag.String("scale", "small", "dataset scale: small|full")
		freeloaders = flag.Int("freeloaders", 0, "replace the last N clients with freeloaders")
		detect      = flag.Bool("detect", false, "enable TACO freeloader detection")
		weightData  = flag.Bool("weight-by-data", false, "aggregate with p_i = D_i/D")
		policyName  = flag.String("policy", "sync", "aggregation policy: "+strings.Join(fl.PolicyNames(), "|"))
		deadlineSec = flag.Float64("deadline", 0, "deadline policy: modeled seconds per round (0 = 1.5× the nominal modeled round)")
		buffer      = flag.Int("buffer", 0, "async policy: buffered updates per server step (0 = clients/4, min 1)")
		hetero      = flag.String("hetero", "uniform", "device fleet: "+strings.Join(simclock.FleetNames(), "|"))
		dtype       = flag.String("dtype", "f64", "client compute precision: f64|f32 (f32 halves training memory and speeds up local steps; aggregation and metrics stay float64)")
		compressStr = flag.String("compress", "", "uplink codec: none|topk[:frac]|int8[:chunk] (default dense uploads)")
		topkFrac    = flag.Float64("topk", 0, "kept-coordinate fraction for -compress topk (0 = the codec's, default 0.01)")
		attack      = flag.String("attack", "", "corrupt clients: kind[:frac[:scale]], kind one of "+strings.Join(adversary.KindNames(), "|"))
		attackFrac  = flag.Float64("attack-frac", 0, "fraction of clients corrupted by -attack (0 = the spec's, default 0.25)")
		attackScale = flag.Float64("attack-scale", 0, "magnitude of -attack (0 = the kind's default)")
		faultStr    = flag.String("fault", "", "inject faults: comma-separated kind[:frac[:param]], kind one of "+strings.Join(fault.KindNames(), "|"))
		stackStr    = flag.String("aggstack", "", `robust pre-aggregation stack: "|"-separated kind[:norm] stages, kind one of zeroing|clip (e.g. "zeroing|clip", "clip:5"; no norm = adaptive quantile bound)`)
		srvOptStr   = flag.String("serveropt", "", "server optimizer: kind[:lr], kind one of fedsgd|adagrad|adam|yogi (default vanilla apply)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "checkpoint the run every N rounds (0 = off; required for servercrash recovery beyond round 0)")
		quorum      = flag.Float64("quorum", 0, "sync/deadline: commit a round degraded when fewer than this fraction of dispatched updates arrive (0 = off)")
		experiment  = flag.String("experiment", "", "run a registered experiment (e.g. robustness), write results/<id>.txt, and exit; ids: "+strings.Join(experiments.IDs(), "|"))
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a post-run heap profile to this file")
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
		expScale := experiments.ScaleQuick
		if *scaleName == "full" {
			expScale = experiments.ScaleFull
		}
		return runExperiment(*experiment, expScale, *seed)
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

	scale := dataset.ScaleSmall
	if *scaleName == "full" {
		scale = dataset.ScaleFull
	}
	train, test, err := dataset.Standard(*dsName, scale, *seed)
	if err != nil {
		return err
	}
	net, err := dataset.Model(*dsName)
	if err != nil {
		return err
	}
	r := rng.New(*seed).Derive("partition", 0)
	var part *partition.Partition
	switch *partKind {
	case "groups":
		part, _, err = partition.Groups(train, partition.PaperGroups(*clients), r)
	case "dir":
		part, err = partition.Dirichlet(train, *clients, *phi, r)
	case "iid":
		part, err = partition.IID(train, *clients, r)
	case "natural":
		part, err = partition.ByNaturalGroups(train, *clients, r)
	default:
		err = fmt.Errorf("unknown partition %q", *partKind)
	}
	if err != nil {
		return err
	}

	var alg fl.Algorithm
	if *algName == "TACO" && *detect {
		cfg := core.Recommended()
		cfg.DetectFreeloaders = true
		alg = core.New(cfg)
	} else {
		alg, err = experiments.NewAlgorithm(*algName)
		if err != nil {
			return err
		}
	}

	policy, err := fl.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	// The nominal modeled round anchors the default deadline and the
	// extreme fleet's availability period.
	nominal := simclock.RoundSeconds(net.GradFlops(*batch), *localSteps, simclock.Plain())
	fleet, err := simclock.FleetByName(*hetero, *clients, nominal, *seed)
	if err != nil {
		return err
	}

	cfg := fl.Config{
		Rounds:       *rounds,
		LocalSteps:   *localSteps,
		BatchSize:    *batch,
		LocalLR:      *lr,
		GlobalLR:     *globalLR,
		Seed:         *seed,
		DType:        *dtype,
		WeightByData: *weightData,
		Policy:       policy,
		Devices:      fleet,
	}
	// The flags are forwarded unconditionally so Config.Validate rejects
	// contradictory invocations (e.g. -policy sync -deadline 5) instead
	// of silently dropping the knob.
	cfg.RoundDeadlineSec = *deadlineSec
	cfg.AsyncBuffer = *buffer
	if policy == fl.PolicyDeadline && cfg.RoundDeadlineSec == 0 {
		cfg.RoundDeadlineSec = 1.5 * nominal
	}
	if policy == fl.PolicyAsync && cfg.AsyncBuffer == 0 {
		cfg.AsyncBuffer = max(*clients/4, 1)
	}
	if *freeloaders > 0 {
		if *freeloaders >= *clients {
			return fmt.Errorf("need at least one honest client")
		}
		ids := make([]int, 0, *freeloaders)
		for id := *clients - *freeloaders; id < *clients; id++ {
			ids = append(ids, id)
		}
		cfg.Adversaries = append(cfg.Adversaries, adversary.Freeloaders(ids))
	}
	codecSpec, err := buildCompress(*compressStr, *topkFrac)
	if err != nil {
		return err
	}
	cfg.Compress = codecSpec

	spec, err := buildAttack(*attack, *attackFrac, *attackScale)
	if err != nil {
		return err
	}
	if spec != nil {
		cfg.Adversaries = append(cfg.Adversaries, *spec)
		fmt.Printf("attack %s (scale %v): corrupt clients %v\n", spec.Kind, spec.Scale, spec.Members(*clients))
	}

	faults, err := buildFaults(*faultStr)
	if err != nil {
		return err
	}
	cfg.Faults = faults
	if cfg.AggStack, err = buildStack(*stackStr); err != nil {
		return err
	}
	if cfg.ServerOpt, err = buildServerOpt(*srvOptStr); err != nil {
		return err
	}
	// Forwarded unconditionally so Config.Validate rejects contradictory
	// invocations (e.g. -quorum without -fault) instead of dropping them.
	cfg.CheckpointEvery = *ckptEvery
	cfg.Quorum = *quorum

	res, err := fl.Run(cfg, alg, net, part.Shards(train), test)
	if err != nil {
		return err
	}

	run := res.Run
	accs := make([]float64, len(run.Rounds))
	for i, rec := range run.Rounds {
		fmt.Printf("round %3d  acc %.4f  loss %.4f  t_model %.3fs  t_real %.3fs",
			rec.Index+1, rec.Accuracy, rec.TrainLoss, rec.SlowestModeledSec, rec.SlowestMeasuredSec)
		if policy != fl.PolicySync {
			fmt.Printf("  stale %.2f/%d  drop %d", rec.MeanStaleness, rec.MaxStaleness, rec.DroppedClients)
		}
		if len(cfg.Faults) > 0 {
			fmt.Printf("  retry %d  lost %d  dup %d", rec.Retries, rec.DroppedUpdates, rec.DupUpdates)
			if rec.Degraded {
				fmt.Printf("  DEGRADED")
			}
		}
		if !cfg.AggStack.Empty() {
			fmt.Printf("  zeroed %d  clipped %d", rec.ZeroedUpdates, rec.ClippedUpdates)
		}
		if rec.ReassignedDispatches > 0 || rec.WorkerReconnects > 0 {
			fmt.Printf("  re %d  rc %d", rec.ReassignedDispatches, rec.WorkerReconnects)
		}
		fmt.Println()
		accs[i] = rec.Accuracy
	}
	fmt.Printf("\n%s on %s: final %.4f, best %.4f  %s\n",
		alg.Name(), *dsName, run.FinalAccuracy(), run.BestAccuracy(), report.Sparkline(accs, 0, 1))
	fmt.Printf("uplink: %.2f MiB (codec %s, ratio %.1fx)\n",
		float64(run.TotalUplinkBytes())/(1<<20), cfg.Compress, run.MeanCompressionRatio())
	if policy != fl.PolicySync && len(run.Rounds) > 0 {
		fmt.Printf("policy %s (fleet %s): t_wall %.3fs, dropped %d, mean staleness %.2f (peak %d)\n",
			policy, *hetero, run.Rounds[len(run.Rounds)-1].CumModeledSec,
			run.TotalDropped(), run.MeanStaleness(), run.PeakStaleness())
	}
	if spec != nil {
		fmt.Printf("attack %s: mean corrupt weight mass %.3f (head-count share %.3f)\n",
			spec.Kind, run.MeanCorruptWeight(), float64(len(spec.Members(*clients)))/float64(*clients))
	}
	printStackSummary(&cfg, run)
	printFaultSummary(&cfg, run)
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
