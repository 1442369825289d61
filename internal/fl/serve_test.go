package fl_test

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/rng"
)

// runWire executes cfg over a loopback TCP socket: fl.Serve in this
// goroutine, `workers` fl.RunWorker goroutines dialing in. Worker errors
// fail the test.
func runWire(t *testing.T, cfg fl.Config, workers int, opt fl.ServeOptions) *fl.Result {
	t.Helper()
	return runWireClients(t, cfg, 8, workers, opt)
}

// runWireClients is runWire over a fleet of the given size.
func runWireClients(t *testing.T, cfg fl.Config, clients, workers int, opt fl.ServeOptions) *fl.Result {
	t.Helper()
	network, shards, test := testSetup(t, clients)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = fl.RunWorker(conn, i, workers, cfg, baselines.NewFedAvg(), network, shards, test.Name)
		}(i)
	}
	opt.Workers = workers
	res, serveErr := fl.Serve(ln, opt, cfg, baselines.NewFedAvg(), network, shards, test)
	ln.Close()
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
	}
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	return res
}

// stripMeasured clears the real wall-time fields — the only metrics a
// wire run may legitimately differ on (both runs measure real Go time,
// just of different processes).
func stripMeasured(rounds []metrics.Round) []metrics.Round {
	out := make([]metrics.Round, len(rounds))
	for i, r := range rounds {
		r.SlowestMeasuredSec = 0
		r.CumMeasuredSec = 0
		out[i] = r
	}
	return out
}

// assertWireGolden runs cfg in-process and over loopback, requires
// bit-identical final weights and round metrics (measured wall times
// excluded), and returns the in-process result.
func assertWireGolden(t *testing.T, cfg fl.Config, workers int) *fl.Result {
	t.Helper()
	return assertWireGoldenClients(t, cfg, 8, workers)
}

// assertWireGoldenClients is assertWireGolden over a fleet of the given
// size.
func assertWireGoldenClients(t *testing.T, cfg fl.Config, clients, workers int) *fl.Result {
	t.Helper()
	network, shards, test := testSetup(t, clients)
	local, err := fl.Run(cfg, baselines.NewFedAvg(), network, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	wired := runWireClients(t, cfg, clients, workers, fl.ServeOptions{})

	if len(wired.FinalParams) != len(local.FinalParams) {
		t.Fatalf("param count %d != %d", len(wired.FinalParams), len(local.FinalParams))
	}
	for i := range local.FinalParams {
		if wired.FinalParams[i] != local.FinalParams[i] {
			t.Fatalf("FinalParams[%d]: wire %v != local %v (first mismatch)", i, wired.FinalParams[i], local.FinalParams[i])
		}
	}
	lr, wr := stripMeasured(local.Run.Rounds), stripMeasured(wired.Run.Rounds)
	if !reflect.DeepEqual(lr, wr) {
		for i := range lr {
			if i < len(wr) && !reflect.DeepEqual(lr[i], wr[i]) {
				t.Fatalf("round %d metrics diverge:\nlocal %+v\nwire  %+v", i, lr[i], wr[i])
			}
		}
		t.Fatalf("round counts diverge: local %d, wire %d", len(lr), len(wr))
	}
	return local
}

// TestServeGoldenCodecs pins the tentpole acceptance bar: a socket-backed
// run is bit-identical to the in-process run — same final weights, same
// losses, same accuracies, same uplink accounting — under every payload
// wire form (dense, varint-delta TopK, chunked int8).
func TestServeGoldenCodecs(t *testing.T) {
	fl.CheckGoroutines(t)
	for _, tc := range []struct {
		name string
		spec compress.Spec
	}{
		{"dense", compress.Spec{}},
		{"topk", compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.25}},
		{"int8", compress.Spec{Kind: compress.KindInt8, Chunk: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig()
			cfg.Compress = tc.spec
			assertWireGolden(t, cfg, 2)
		})
	}
}

// TestServeGoldenPolicies covers the two non-sync schedulers: the
// deadline straggler cut and the pipelined async path (settleOne,
// overlapping dispatch), plus partial participation's sparse dispatch
// IDs, and an uneven three-way worker split.
func TestServeGoldenPolicies(t *testing.T) {
	fl.CheckGoroutines(t)
	t.Run("deadline", func(t *testing.T) {
		cfg := quickConfig()
		cfg.Policy = fl.PolicyDeadline
		cfg.RoundDeadlineSec = 1e6
		assertWireGolden(t, cfg, 2)
	})
	t.Run("async", func(t *testing.T) {
		cfg := quickConfig()
		cfg.Policy = fl.PolicyAsync
		cfg.AsyncBuffer = 3
		assertWireGolden(t, cfg, 2)
	})
	t.Run("participation", func(t *testing.T) {
		cfg := quickConfig()
		cfg.ParticipationFraction = 0.5
		assertWireGolden(t, cfg, 2)
	})
	t.Run("three workers", func(t *testing.T) {
		assertWireGolden(t, quickConfig(), 3)
	})
}

// TestServeGoldenOneWideWorker runs one worker that owns 300 clients,
// more than a connection ever had to hold before the server's intake was
// bounded by dispatch alone (ingest): every round streams 300 uploads
// over one socket, and under async the server reads them only as their
// modeled finish times come up. Both runs end bit-identical to fl.Run.
func TestServeGoldenOneWideWorker(t *testing.T) {
	fl.CheckGoroutines(t)
	for _, async := range []bool{false, true} {
		name := "sync"
		cfg := quickConfig()
		cfg.Rounds, cfg.LocalSteps = 3, 1
		if async {
			name = "async"
			cfg.Policy = fl.PolicyAsync
			cfg.AsyncBuffer = 64
		}
		t.Run(name, func(t *testing.T) { assertWireGoldenClients(t, cfg, 300, 1) })
	}
}

// TestServeGoldenFaults exercises server-side fault resolution over the
// wire: crashes retry (re-dispatching the same client, whose sampler
// advances identically in both modes) and duplicates double the charged
// uplink bytes — all decided from server-owned rng streams the workers
// never see.
func TestServeGoldenFaults(t *testing.T) {
	fl.CheckGoroutines(t)
	t.Run("sync", func(t *testing.T) {
		cfg := quickConfig()
		cfg.Faults = []fault.Spec{
			{Kind: fault.KindCrash, Frac: 0.3},
			{Kind: fault.KindDup, Frac: 0.5},
		}
		assertWireGolden(t, cfg, 2)
	})
	// A failed async attempt sends no Dispatch frame and trains on no
	// worker; its client's next delivered round must still train from the
	// same state in both modes.
	t.Run("async", func(t *testing.T) {
		cfg := quickConfig()
		cfg.Policy, cfg.AsyncBuffer, cfg.Rounds = fl.PolicyAsync, 3, 20
		cfg.Faults = []fault.Spec{
			{Kind: fault.KindCrash, Frac: 0.2},
			{Kind: fault.KindDrop, Frac: 0.2},
			{Kind: fault.KindDup, Frac: 0.2},
		}
		cfg.Compress = compress.Spec{Kind: compress.KindInt8, Chunk: 64}
		res := assertWireGolden(t, cfg, 2)
		if res.Run.Total(metrics.Retried) == 0 {
			t.Fatal("no async attempt was retried")
		}
	})
}

// TestServeRejectsUnsafe pins validateWire: stateful algorithms and
// async-policy checkpointing cannot run over the wire and must fail
// loudly up front.
func TestServeRejectsUnsafe(t *testing.T) {
	fl.CheckGoroutines(t)
	network, shards, test := testSetup(t, 8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cfg := quickConfig()
	if _, err := fl.Serve(ln, fl.ServeOptions{Workers: 1}, cfg, baselines.NewScaffold(1), network, shards, test); err == nil || !strings.Contains(err.Error(), "wire-safe") {
		t.Fatalf("stateful algorithm: got err %v, want wire-safe rejection", err)
	}
	cfg.CheckpointEvery = 2
	cfg.Policy = fl.PolicyAsync
	cfg.AsyncBuffer = 3
	if _, err := fl.Serve(ln, fl.ServeOptions{Workers: 1}, cfg, baselines.NewFedAvg(), network, shards, test); err == nil || !strings.Contains(err.Error(), "checkpointing") {
		t.Fatalf("async checkpointing: got err %v, want rejection", err)
	}

	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if err := fl.RunWorker(c1, 0, 1, quickConfig(), baselines.NewScaffold(1), network, shards, test.Name); err == nil || !strings.Contains(err.Error(), "wire-safe") {
		t.Fatalf("worker with stateful algorithm: got err %v, want wire-safe rejection", err)
	}
}

// TestServeFingerprintMismatch pins the handshake: a worker built from a
// diverging run is rejected before any training, and both sides surface
// the mismatch. The run diverges either in its config (a different seed)
// or only in its data split (shards from another Dirichlet φ under the
// same config).
func TestServeFingerprintMismatch(t *testing.T) {
	fl.CheckGoroutines(t)
	network, shards, test := testSetup(t, 8)
	train, _, err := dataset.Standard("adult", dataset.ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, 8, 0.1, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	seeded := quickConfig()
	seeded.Seed++
	for _, tc := range []struct {
		name   string
		cfg    fl.Config
		shards []*dataset.Dataset
	}{
		{"seed", seeded, shards},
		{"data split", quickConfig(), part.Shards(train)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			workerErr := make(chan error, 1)
			go func() {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					workerErr <- err
					return
				}
				workerErr <- fl.RunWorker(conn, 0, 1, tc.cfg, baselines.NewFedAvg(), network, tc.shards, test.Name)
			}()

			_, err = fl.Serve(ln, fl.ServeOptions{Workers: 1}, quickConfig(), baselines.NewFedAvg(), network, shards, test)
			if err == nil || !strings.Contains(err.Error(), "fingerprint") {
				t.Fatalf("serve: got err %v, want fingerprint mismatch", err)
			}
			if werr := <-workerErr; werr == nil || !strings.Contains(werr.Error(), "rejected") {
				t.Fatalf("worker: got err %v, want rejection", werr)
			}
		})
	}
}
