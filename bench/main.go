// Command bench is the repository's round-cost benchmark: five federated
// workloads driven only through public entry points (fl.Run, fl.Serve,
// fl.RunWorkerOpts, experiments.Profile.Materialize and each layer's
// exported functions), measured from outside by an fl.Algorithm decorator
// and a net.Conn decorator. README.md explains the workloads, the metrics
// and how to read the output.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one measurement (the driver's form)
//	bash bench/run.sh                                                 every workload: 3 untraced repeats + 1 traced
//	bash bench/run.sh -selfcheck                                      two sets of ten seeds, spreads against bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDecl and benchmarkDecl mirror BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkDecl struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadDecl finds BENCHMARK.json in the working directory or its parent
// (the benchmark runs from the repository root, or from bench/ under
// `go run`). root is the directory it was found in.
func loadDecl() (decl *benchmarkDecl, root string, err error) {
	for _, dir := range []string{".", ".."} {
		b, rerr := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if rerr != nil {
			continue
		}
		decl = new(benchmarkDecl)
		if err := json.Unmarshal(b, decl); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return decl, dir, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// options are the command line.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	selfcheck bool
	// Set by a parent measurement on the child it spawns.
	one   string
	local bool
	out   string
}

// processStart is read as early as this package can: set-up is measured
// from here in the child, so the parent's fork and exec are not in it.
var processStart = time.Now()

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one measurement of this workload and print the result line")
	flag.Uint64Var(&o.seed, "seed", 1, "drives the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "timed seconds per measurement (default: BENCHMARK.json run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced measurement, per-layer metrics")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets of ten seeds per workload and compare them against the bounds")
	flag.StringVar(&o.one, "one", "", "internal: run one episode of this workload in this process")
	flag.BoolVar(&o.local, "local", false, "internal: run a wire workload in process")
	flag.StringVar(&o.out, "out", "", "internal: directory for trace files")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.one != "" {
		w, err := workloadByName(o.one)
		if err != nil {
			return err
		}
		ep, err := runEpisode(w, episodeOpts{seed: o.seed, rounds: w.rounds, traced: o.trace == 1, local: o.local, epoch: processStart, outDir: o.out})
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(ep)
	}

	decl, root, err := loadDecl()
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(decl.RunSeconds)
	}
	outDir := filepath.Join(root, "bench", "out")
	switch {
	case o.workload != "":
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		m := &measurement{w: w, seed: o.seed, seconds: o.seconds, traced: o.trace == 1, outDir: outDir}
		m.run()
		res := m.result(decl)
		printMeasurement(os.Stdout, m, res)
		return json.NewEncoder(os.Stdout).Encode(res)
	case o.selfcheck:
		return runSelfcheck(decl, outDir, o.seconds)
	default:
		return runAll(decl, outDir, o.seed, o.seconds)
	}
}
