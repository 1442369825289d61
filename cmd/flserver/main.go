// Command flserver runs wire-real federated training: a socket-backed
// server process (fl.Serve) driving worker processes (fl.RunWorker) over
// TCP or Unix sockets, with the compact frame format of internal/wire.
// A -mode local run executes the identical configuration in-process
// (fl.Run) and prints the same deterministic summary, so diffing the
// two outputs proves the wire path bit-identical.
//
// Usage:
//
//	flserver -mode serve  -addr 127.0.0.1:7070 -workers 2 -dataset adult -alg FedAvg -rounds 3
//	flserver -mode worker -addr 127.0.0.1:7070 -workers 2 -index 0 -dataset adult -alg FedAvg -rounds 3
//	flserver -mode worker -addr 127.0.0.1:7070 -workers 2 -index 1 -dataset adult -alg FedAvg -rounds 3
//	flserver -mode local  -dataset adult -alg FedAvg -rounds 3
//	flserver -mode serve -network unix -addr /tmp/fl.sock -workers 1 -compress topk
//
// flserver takes flsim's run flags (internal/runflag), passed identically
// to the server and each worker: the Hello fingerprint of the config and
// data split rejects mismatches. Serve and worker modes reject what the
// wire cannot carry (adversaries, TACO's state, async checkpointing).
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fl"
	"repro/internal/runflag"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		mode    = flag.String("mode", "local", "role: serve|worker|local")
		network = flag.String("network", "tcp", "socket family: tcp|unix")
		addr    = flag.String("addr", "127.0.0.1:7070", "listen/dial address (a socket path for -network unix)")
		index   = flag.Int("index", 0, "worker: this worker's index in [0,workers)")
		workers = flag.Int("workers", 1, "worker process count")

		heartbeat  = flag.Float64("heartbeat", 0, "liveness probe seconds (0 = 5, negative disables)")
		grace      = flag.Float64("grace", 0, "serve: seconds to wait for a dead worker to re-dial before reassigning its clients (0 = don't wait)")
		noReassign = flag.Bool("no-reassign", false, "serve: never move clients between workers (a lost worker degrades rounds until it re-attaches)")
		ckptFile   = flag.String("checkpoint-file", "", "serve/local: file the newest checkpoint blob is written to (atomic replace; implies -checkpoint-every 1 when unset)")
		resume     = flag.String("resume", "", "serve/local: checkpoint file to restore and continue from")
		reattach   = flag.Bool("reattach", false, "worker: re-dial and re-attach after a connection loss or server pause")
	)
	r := runflag.Register(flag.CommandLine, runflag.Server)
	flag.Parse()

	cfg, alg, net_, shards, test, err := r.Build()
	if err != nil {
		return err
	}

	// Checkpointing wiring, shared by serve and local: -checkpoint-file
	// persists the newest blob via an atomic rename, so a killed process
	// always leaves a complete checkpoint to -resume from. The flag set
	// including these must match between a checkpoint writer and its
	// resumer (the blob fingerprints the config).
	if *ckptFile != "" {
		if cfg.CheckpointEvery == 0 {
			cfg.CheckpointEvery = 1
		}
		cfg.OnCheckpoint = func(round int, blob []byte) {
			tmp := *ckptFile + ".tmp"
			err := os.WriteFile(tmp, blob, 0o644)
			if err == nil {
				err = os.Rename(tmp, *ckptFile)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint at round %d not written: %v\n", round, err)
			}
		}
	}
	var resumeBlob []byte
	if *resume != "" {
		if resumeBlob, err = os.ReadFile(*resume); err != nil {
			return err
		}
	}

	var res *fl.Result
	switch *mode {
	case "serve":
		ln, lerr := net.Listen(*network, *addr)
		if lerr != nil {
			return lerr
		}
		defer ln.Close()
		// SIGINT/SIGTERM pause the run at the next round boundary: a
		// final checkpoint is written, workers get a pausing Bye telling
		// them to re-attach, and the transcript so far still prints. A
		// second signal kills the process the default way.
		interrupt := make(chan struct{})
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			signal.Stop(sig)
			fmt.Fprintln(os.Stderr, "interrupted: pausing at the next round boundary")
			close(interrupt)
		}()
		opt := fl.ServeOptions{
			Workers:          *workers,
			HeartbeatSec:     *heartbeat,
			FailoverGraceSec: *grace,
			DisableReassign:  *noReassign,
			Interrupt:        interrupt,
		}
		fmt.Fprintf(os.Stderr, "serving %s on %s %s, waiting for %d workers\n", r.Alg, *network, *addr, *workers)
		if resumeBlob != nil {
			res, err = fl.ServeResume(ln, opt, resumeBlob, *cfg, alg, net_, shards, test)
		} else {
			res, err = fl.Serve(ln, opt, *cfg, alg, net_, shards, test)
		}
	case "worker":
		wh := *heartbeat
		if wh == 0 {
			wh = 5
		} else if wh < 0 {
			wh = 0
		}
		attach := 0
		for {
			conn, err := dialRetry(*network, *addr, 10*time.Second)
			if err != nil {
				return err
			}
			wopt := fl.WorkerOptions{Index: *index, Workers: *workers, Attach: attach, HeartbeatSec: wh}
			err = fl.RunWorkerOpts(conn, wopt, *cfg, alg, net_, shards, r.Dataset)
			if err == nil {
				fmt.Fprintf(os.Stderr, "worker %d/%d done\n", *index, *workers)
				return nil
			}
			// A rejection is a misconfiguration (fingerprint/index): no
			// amount of re-dialing fixes it. Everything else — connection
			// loss, chaos resets, a pausing server — re-attaches when the
			// flag allows.
			if !*reattach || strings.Contains(err.Error(), "rejected") {
				return err
			}
			attach++
			fmt.Fprintf(os.Stderr, "worker %d/%d: %v; re-attaching (attempt %d)\n", *index, *workers, err, attach)
			time.Sleep(300 * time.Millisecond)
		}
	case "local":
		if resumeBlob != nil {
			res, err = fl.Resume(*cfg, alg, net_, shards, test, resumeBlob)
		} else {
			res, err = fl.Run(*cfg, alg, net_, shards, test)
		}
	default:
		return fmt.Errorf("unknown -mode %q (serve|worker|local)", *mode)
	}
	if err != nil {
		return err
	}
	printSummary(*mode, res)
	return nil
}

// dialRetry dials until the server is listening (workers usually start
// before it) or the budget runs out.
func dialRetry(network, addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	for {
		conn, err := net.Dial(network, addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dialing %s %s: %w", network, addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// printSummary emits a deterministic run transcript: per-round accuracy
// and loss, the final accuracy, total uplink bytes, and an FNV-1a hash
// of the final parameter bits. Every stdout field is modeled or exact —
// no wall times, no mode label (status goes to stderr) — so CI checks
// wire-path bit-identity with a plain `diff` of local vs serve stdout.
func printSummary(mode string, res *fl.Result) {
	run := res.Run
	for _, rec := range run.Rounds {
		// re/rc (reassigned dispatches, worker reconnects) are always
		// printed, and always zero for local and undisturbed serve runs.
		fmt.Printf("round %3d  acc %.6f  loss %.6f  t_model %.3fs  re %d  rc %d\n",
			rec.Index+1, rec.Accuracy, rec.TrainLoss, rec.SlowestModeledSec,
			rec.ReassignedDispatches, rec.WorkerReconnects)
	}
	if run.HaltReason != "" {
		fmt.Fprintf(os.Stderr, "run stopped at round %d: %s\n", run.HaltRound, run.HaltReason)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.FinalParams {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	fmt.Printf("final acc %.6f  uplink %d B  params fnv1a %016x  (%s)\n",
		run.FinalAccuracy(), run.TotalUplinkBytes(), h.Sum64(), run.Algorithm)
	if mode == "serve" {
		// Why connections were severed, by cause, on stderr: stdout must
		// stay byte-identical to -mode local.
		fmt.Fprint(os.Stderr, "severs:")
		for c, n := range res.Severs {
			fmt.Fprintf(os.Stderr, " %v %d", fl.SeverCause(c), n)
		}
		fmt.Fprintln(os.Stderr)
		// How re-dialed workers came back: from the state they kept, or
		// by a history replay.
		fmt.Fprintf(os.Stderr, "readmits: resumed %d replayed %d\n", res.Resumed, res.Replayed)
	}
	fmt.Fprintf(os.Stderr, "%s run complete\n", mode)
}
