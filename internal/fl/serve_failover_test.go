package fl_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// failoverCodecs is the acceptance matrix: worker failure must be
// survivable bit-identically under dense and sparse transport.
var failoverCodecs = []struct {
	name string
	spec compress.Spec
}{
	{"dense", compress.Spec{}},
	{"topk", compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.25}},
}

// killAfterFrames wraps a worker-side connection and closes it the
// moment n complete inbound frames have been delivered — a
// deterministic way to die at a frame boundary mid-run, independent of
// scheduling. The worker still processes the final frame (the bytes
// were delivered) but its reply write fails, so the server sees the
// frame's dispatches as in-flight on a dead connection.
type killAfterFrames struct {
	net.Conn
	mu     sync.Mutex
	remain int
	header []byte
	body   int
	done   bool
}

func (k *killAfterFrames) Read(p []byte) (int, error) {
	n, err := k.Conn.Read(p)
	if n > 0 {
		k.mu.Lock()
		kill := k.feed(p[:n])
		k.mu.Unlock()
		if kill {
			k.Conn.Close()
		}
	}
	return n, err
}

// feed advances the frame-boundary state machine (7-byte header with a
// little-endian u32 body length) and reports whether the kill
// threshold was just crossed.
func (k *killAfterFrames) feed(b []byte) bool {
	for len(b) > 0 && !k.done {
		if k.body > 0 {
			take := min(k.body, len(b))
			k.body -= take
			b = b[take:]
		} else {
			take := min(7-len(k.header), len(b))
			k.header = append(k.header, b[:take]...)
			b = b[take:]
			if len(k.header) < 7 {
				return false
			}
			k.body = int(binary.LittleEndian.Uint32(k.header[3:]))
			k.header = k.header[:0]
		}
		if k.body == 0 {
			k.remain--
			if k.remain == 0 {
				k.done = true
				return true
			}
		}
	}
	return false
}

// stripRecovery additionally clears the failover counters — legitimate
// differences between a disturbed run and the clean comparator.
func stripRecovery(rounds []metrics.Round) []metrics.Round {
	out := stripMeasured(rounds)
	for i := range out {
		out[i].ReassignedDispatches = 0
		out[i].WorkerReconnects = 0
	}
	return out
}

// assertSameRun requires bit-identical final weights and round metrics
// (measured wall times and recovery counters excluded).
func assertSameRun(t *testing.T, local, wired *fl.Result) {
	t.Helper()
	if len(wired.FinalParams) != len(local.FinalParams) {
		t.Fatalf("param count %d != %d", len(wired.FinalParams), len(local.FinalParams))
	}
	for i := range local.FinalParams {
		if wired.FinalParams[i] != local.FinalParams[i] {
			t.Fatalf("FinalParams[%d]: wire %v != local %v (first mismatch)", i, wired.FinalParams[i], local.FinalParams[i])
		}
	}
	lr, wr := stripRecovery(local.Run.Rounds), stripRecovery(wired.Run.Rounds)
	if !reflect.DeepEqual(lr, wr) {
		for i := range lr {
			if i < len(wr) && !reflect.DeepEqual(lr[i], wr[i]) {
				t.Fatalf("round %d metrics diverge:\nlocal %+v\nwire  %+v", i, lr[i], wr[i])
			}
		}
		t.Fatalf("round counts diverge: local %d, wire %d", len(lr), len(wr))
	}
}

// totalRecovery sums the per-round failover counters.
func totalRecovery(run *metrics.Run) (re, rc int) {
	return run.TotalReassignedDispatches(), run.TotalWorkerReconnects()
}

// updatesWriter wraps a worker-side connection and counts the Updates
// frames the worker writes; with killAt > 0 it closes the connection
// right after the killAt-th one (only its write side with halfClose, so
// the server reads every frame written before the cut). The worker writes
// every frame with one Write call, so a write's third byte is its frame
// type.
type updatesWriter struct {
	net.Conn
	mu        sync.Mutex
	updates   int
	killAt    int
	halfClose bool
}

func (u *updatesWriter) Write(p []byte) (int, error) {
	n, err := u.Conn.Write(p)
	if err == nil && len(p) >= wire.HeaderLen && wire.FrameType(p[2]) == wire.FrameUpdates {
		u.mu.Lock()
		u.updates++
		kill := u.updates == u.killAt
		u.mu.Unlock()
		if kill && u.halfClose {
			u.Conn.(*net.TCPConn).CloseWrite()
		} else if kill {
			u.Conn.Close()
		}
	}
	return n, err
}

// frames returns how many Updates frames went through.
func (u *updatesWriter) frames() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.updates
}

// TestServeFailoverKillWorker is the tentpole acceptance test: one of
// two workers dies mid-round, the survivor adopts its clients by history
// replay, and the run finishes bit-identical to the uninterrupted
// in-process fl.Run — under dense and top-k codecs. The worker dies
// either right after the round-2 dispatch is delivered, before any
// reply, or between the two Updates frames of its 40-client round-2
// batch: then the 32 clients that arrived replay as Adopt and the other
// 8 as a live Dispatch.
func TestServeFailoverKillWorker(t *testing.T) {
	fl.CheckGoroutines(t)
	for _, tc := range failoverCodecs {
		t.Run(tc.name, func(t *testing.T) {
			// Dies after the third inbound frame (dispatches for rounds 0,
			// 1, 2): all 4 of its round-2 clients are left in flight.
			runKillWorker(t, tc.spec, 8, 4, func(c net.Conn) net.Conn { return &killAfterFrames{Conn: c, remain: 3} })
		})
		t.Run(tc.name+" between updates", func(t *testing.T) {
			// Two Updates frames a round (32 + 8 clients): the fifth is the
			// first of round 2, so 8 clients are left in flight.
			runKillWorker(t, tc.spec, 80, 8, func(c net.Conn) net.Conn { return &updatesWriter{Conn: c, killAt: 5} })
		})
	}
}

// runKillWorker runs quickConfig with the given codec over two workers
// of clients/2 clients each, worker 1's connection wrapped by kill, and
// requires the run to equal fl.Run with wantRe dispatches reassigned —
// the clients of the cut batch that had not arrived.
func runKillWorker(t *testing.T, spec compress.Spec, clients, wantRe int, kill func(net.Conn) net.Conn) {
	t.Helper()
	cfg := quickConfig()
	cfg.Compress = spec
	wired := serveKilled(t, cfg, clients, kill, -1)
	if re, _ := totalRecovery(wired.Run); re != wantRe {
		t.Fatalf("%d dispatches reassigned, want %d (0: failover never engaged)", re, wantRe)
	}
	if wired.Severs[fl.SeverRead] != 1 {
		t.Fatalf("severs %v, want the one cut connection severed as a read error", wired.Severs)
	}
}

// muteAfterFrames is killAfterFrames that, past its threshold, keeps the
// socket open and reading but drops every write: the server hears
// nothing more from the worker.
type muteAfterFrames struct {
	killAfterFrames
	muted atomic.Bool
}

func (m *muteAfterFrames) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	if n > 0 {
		m.mu.Lock()
		if m.feed(p[:n]) {
			m.muted.Store(true)
		}
		m.mu.Unlock()
	}
	return n, err
}

func (m *muteAfterFrames) Write(p []byte) (int, error) {
	if m.muted.Load() {
		return len(p), nil
	}
	return m.Conn.Write(p)
}

// TestServeSeversSilentWorker: a worker that goes quiet, socket open, is
// severed by the heartbeat supervisor, counted as silence, and its
// clients fail over; the run still equals fl.Run.
func TestServeSeversSilentWorker(t *testing.T) {
	fl.CheckGoroutines(t)
	wired := serveKilled(t, quickConfig(), 8, func(c net.Conn) net.Conn {
		return &muteAfterFrames{killAfterFrames: killAfterFrames{Conn: c, remain: 3}}
	}, 0.5)
	if wired.Severs[fl.SeverSilence] != 1 {
		t.Fatalf("severs %v, want the muted connection severed as silence", wired.Severs)
	}
}

// serveKilled runs cfg over two workers of clients/2 clients each, worker
// 1's connection wrapped by kill and never re-dialed, under heartbeat
// cadence hb (negative disables it), requires the run to equal fl.Run
// and to have severed exactly one connection, and returns it.
func serveKilled(t *testing.T, cfg fl.Config, clients int, kill func(net.Conn) net.Conn, hb float64) *fl.Result {
	t.Helper()
	network, shards, test := testSetup(t, clients)
	local, err := fl.Run(cfg, baselines.NewFedAvg(), network, shards, test)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errs[0] = err
			return
		}
		errs[0] = fl.RunWorker(conn, 0, 2, cfg, baselines.NewFedAvg(), network, shards, test.Name)
	}()
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errs[1] = err
			return
		}
		errs[1] = fl.RunWorkerOpts(kill(conn), fl.WorkerOptions{Index: 1, Workers: 2}, cfg, baselines.NewFedAvg(), network, shards, test.Name)
	}()
	opt := fl.ServeOptions{Workers: 2, HeartbeatSec: hb}
	wired, serveErr := fl.Serve(ln, opt, cfg, baselines.NewFedAvg(), network, shards, test)
	ln.Close()
	wg.Wait()
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	if errs[0] != nil {
		t.Fatalf("surviving worker: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("killed worker returned nil — the kill never fired")
	}
	assertSameRun(t, local, wired)
	severed := 0
	for _, n := range wired.Severs {
		severed += n
	}
	if severed != 1 {
		t.Fatalf("severs %v, want exactly one connection severed", wired.Severs)
	}
	return wired
}

// TestServeStreamsSubBatches pins the worker's upload streaming: a
// 40-client batch arrives as two Updates frames (32 + 8), not one per
// batch, and the run still equals fl.Run.
func TestServeStreamsSubBatches(t *testing.T) {
	fl.CheckGoroutines(t)
	cfg := quickConfig()
	network, shards, test := testSetup(t, 80)
	local, err := fl.Run(cfg, baselines.NewFedAvg(), network, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	conns := make([]*updatesWriter, 2)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			conns[i] = &updatesWriter{Conn: conn}
			errs[i] = fl.RunWorkerOpts(conns[i], fl.WorkerOptions{Index: i, Workers: 2}, cfg, baselines.NewFedAvg(), network, shards, test.Name)
		}(i)
	}
	wired, serveErr := fl.Serve(ln, fl.ServeOptions{Workers: 2, HeartbeatSec: -1}, cfg, baselines.NewFedAvg(), network, shards, test)
	ln.Close()
	wg.Wait()
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
		if got, want := conns[i].frames(), 2*cfg.Rounds; got != want {
			t.Fatalf("worker %d wrote %d Updates frames for %d rounds of 40 clients, want %d", i, got, cfg.Rounds, want)
		}
	}
	assertSameRun(t, local, wired)
}

// inboundRecorder wraps a worker-side connection and keeps a copy of
// every byte the server sent through it, for frame-level assertions once
// the run is over.
type inboundRecorder struct {
	net.Conn
	mu  sync.Mutex
	buf []byte
}

func (r *inboundRecorder) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.mu.Lock()
	r.buf = append(r.buf, p[:n]...)
	r.mu.Unlock()
	return n, err
}

// trainFrames parses the recorded stream and counts its Adopt and
// Dispatch frames by the round they carry, and its Adopt frames alone.
func (r *inboundRecorder) trainFrames() (perRound map[int]int, adopts int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	perRound = make(map[int]int)
	in := bytes.NewReader(r.buf)
	var fr wire.Frame
	for wire.ReadFrame(in, &fr) == nil {
		if fr.Type != wire.FrameAdopt && fr.Type != wire.FrameDispatch {
			continue
		}
		if fr.Type == wire.FrameAdopt {
			adopts++
		}
		d := wire.Dec{B: fr.Body}
		perRound[int(d.Uvarint())]++
	}
	return perRound, adopts
}

// TestServeFailoverReconnect pins re-admission: with reassignment
// disabled and a grace window, a worker that dies mid-run and re-dials
// (Attach=1) is reset, rebuilt by history replay, and the run still
// finishes bit-identical to fl.Run — under dense and top-k transport,
// under the async policy, and for a worker cut at its first Dispatch,
// whose replay holds no Adopt frame. On the sync rows the re-dialed
// worker receives its history one frame per round (an Adopt frame, plus a
// Dispatch frame for the round still in flight), not one frame per
// dispatched client.
func TestServeFailoverReconnect(t *testing.T) {
	fl.CheckGoroutines(t)
	rows := []struct {
		name   string
		mutate func(*fl.Config)
		// kill is how many inbound frames worker 1's first connection
		// delivers before it is closed.
		kill int
		// settled is whether worker 1 held settled history when it died,
		// so its replay must include Adopt frames.
		settled, sync bool
	}{
		// Killed at its first Dispatch: the replay is the Restore plus
		// that live Dispatch alone.
		{"dense-first-dispatch", func(*fl.Config) {}, 1, false, true},
		// Killed at round 2's Dispatch, with round 1 settled.
		{"dense", func(*fl.Config) {}, 2, true, true},
		{"topk", func(c *fl.Config) { c.Compress = compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.25} }, 4, true, true},
		// Async dispatches one client per frame: the fifth follows worker
		// 1's four initial dispatches, so part of its history has settled.
		{"async", func(c *fl.Config) { c.Policy, c.AsyncBuffer = fl.PolicyAsync, 3 }, 5, true, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := quickConfig()
			row.mutate(&cfg)
			redialed := serveRedialed(t, cfg, 8, func(c net.Conn) net.Conn { return &killAfterFrames{Conn: c, remain: row.kill} })
			perRound, adopts := redialed.trainFrames()
			if (adopts > 0) != row.settled {
				t.Fatalf("the re-dialed worker received %d Adopt frames; settled history: %v", adopts, row.settled)
			}
			if !row.sync {
				return
			}
			// Worker 1 owns 4 clients, all dispatched every round: per-client
			// replay would send 4 frames for each round of history.
			for round, n := range perRound {
				if n > 2 {
					t.Fatalf("round %d reached the re-dialed worker in %d frames, want at most 2 (one Adopt, one live Dispatch)", round, n)
				}
			}
		})
	}
}

// serveRedialed runs cfg over two workers of clients/2 clients each with
// reassignment disabled and a grace window. Worker 1's first connection,
// wrapped by cut, is closed and re-dials with Attach 1. The run
// must equal fl.Run with re-admission engaged; serveRedialed returns the
// re-dialed connection's record of what the server sent it.
func serveRedialed(t *testing.T, cfg fl.Config, clients int, cut func(net.Conn) net.Conn) *inboundRecorder {
	t.Helper()
	network, shards, test := testSetup(t, clients)
	local, err := fl.Run(cfg, baselines.NewFedAvg(), network, shards, test)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	var redialed *inboundRecorder
	wg.Add(2)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errs[0] = err
			return
		}
		errs[0] = fl.RunWorker(conn, 0, 2, cfg, baselines.NewFedAvg(), network, shards, test.Name)
	}()
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errs[1] = err
			return
		}
		if err := fl.RunWorkerOpts(cut(conn), fl.WorkerOptions{Index: 1, Workers: 2}, cfg, baselines.NewFedAvg(), network, shards, test.Name); err == nil {
			errs[1] = errors.New("killed worker returned nil — the kill never fired")
			return
		}
		conn2, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errs[1] = err
			return
		}
		redialed = &inboundRecorder{Conn: conn2}
		errs[1] = fl.RunWorkerOpts(redialed, fl.WorkerOptions{Index: 1, Workers: 2, Attach: 1}, cfg, baselines.NewFedAvg(), network, shards, test.Name)
	}()
	opt := fl.ServeOptions{Workers: 2, HeartbeatSec: -1, DisableReassign: true, FailoverGraceSec: 30}
	wired, serveErr := fl.Serve(ln, opt, cfg, baselines.NewFedAvg(), network, shards, test)
	ln.Close()
	wg.Wait()
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
	}
	assertSameRun(t, local, wired)
	re, rc := totalRecovery(wired.Run)
	if rc == 0 || re == 0 {
		t.Fatalf("reassigned %d, reconnects %d — re-admission never engaged", re, rc)
	}
	return redialed
}

// TestServeServerCrashReplay extends the in-process crash-replay pin
// over the loopback wire: a servercrash fault restores the last
// checkpoint mid-run, workers are rewound by a reset-and-replay, and
// the re-executed rounds are bit-identical to a clean run.
func TestServeServerCrashReplay(t *testing.T) {
	fl.CheckGoroutines(t)
	for _, tc := range failoverCodecs {
		t.Run(tc.name, func(t *testing.T) {
			clean := quickConfig()
			clean.Compress = tc.spec
			network, shards, test := testSetup(t, 8)
			local, err := fl.Run(clean, baselines.NewFedAvg(), network, shards, test)
			if err != nil {
				t.Fatal(err)
			}

			cfg := clean
			cfg.Faults = []fault.Spec{{Kind: fault.KindServerCrash, Round: 3}}
			cfg.CheckpointEvery = 2
			wired := runWire(t, cfg, 2, fl.ServeOptions{})
			if wired.Run.RecoveredRounds == 0 {
				t.Fatal("RecoveredRounds = 0: the crash never fired")
			}
			assertSameRun(t, local, wired)
		})
	}
}

// TestServeResumeRestart pins the checkpointed server restart: the
// server is interrupted mid-run (final checkpoint, pausing Bye), the
// workers observe ErrServerPaused, and a NEW server process restarted
// from the checkpoint (ServeResume, fresh listener, re-attaching
// workers) finishes the run bit-identical to an uninterrupted fl.Run.
func TestServeResumeRestart(t *testing.T) {
	fl.CheckGoroutines(t)
	for _, tc := range failoverCodecs {
		t.Run(tc.name, func(t *testing.T) {
			clean := quickConfig()
			clean.Compress = tc.spec
			network, shards, test := testSetup(t, 8)
			local, err := fl.Run(clean, baselines.NewFedAvg(), network, shards, test)
			if err != nil {
				t.Fatal(err)
			}

			cfg := clean
			cfg.CheckpointEvery = 2
			var blob []byte
			interrupt := make(chan struct{})
			var once sync.Once
			cfg.OnCheckpoint = func(round int, b []byte) {
				blob = append(blob[:0], b...)
				if round >= 4 {
					once.Do(func() { close(interrupt) })
				}
			}

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					conn, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						errs[i] = err
						return
					}
					errs[i] = fl.RunWorker(conn, i, 2, cfg, baselines.NewFedAvg(), network, shards, test.Name)
				}(i)
			}
			opt := fl.ServeOptions{Workers: 2, HeartbeatSec: -1, Interrupt: interrupt}
			paused, serveErr := fl.Serve(ln, opt, cfg, baselines.NewFedAvg(), network, shards, test)
			ln.Close()
			wg.Wait()
			if serveErr != nil {
				t.Fatal(serveErr)
			}
			if paused.Run.HaltReason != "interrupted" {
				t.Fatalf("HaltReason %q, want interrupted", paused.Run.HaltReason)
			}
			for i, e := range errs {
				if !errors.Is(e, fl.ErrServerPaused) {
					t.Fatalf("worker %d: got %v, want ErrServerPaused", i, e)
				}
			}
			if len(blob) == 0 {
				t.Fatal("no checkpoint captured")
			}

			// Restart: fresh listener, ServeResume from the checkpoint,
			// workers re-attach.
			ln2, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					conn, err := net.Dial("tcp", ln2.Addr().String())
					if err != nil {
						errs[i] = err
						return
					}
					errs[i] = fl.RunWorkerOpts(conn, fl.WorkerOptions{Index: i, Workers: 2, Attach: 1}, cfg, baselines.NewFedAvg(), network, shards, test.Name)
				}(i)
			}
			opt.Interrupt = nil
			wired, resumeErr := fl.ServeResume(ln2, opt, blob, cfg, baselines.NewFedAvg(), network, shards, test)
			ln2.Close()
			wg.Wait()
			if resumeErr != nil {
				t.Fatal(resumeErr)
			}
			for i, e := range errs {
				if e != nil {
					t.Fatalf("re-attached worker %d: %v", i, e)
				}
			}
			assertSameRun(t, local, wired)
		})
	}
}

// TestServeDegradedLostWorker pins the quorum path: with reassignment
// disabled, no grace, and no reconnect, a dead worker's dispatches are
// lost — the run survives, committing sub-quorum rounds as Degraded
// with the losses counted as dropped updates.
func TestServeDegradedLostWorker(t *testing.T) {
	fl.CheckGoroutines(t)
	cfg := quickConfig()
	cfg.Faults = []fault.Spec{{Kind: fault.KindDup, Frac: 0.01}}
	cfg.Quorum = 0.6
	network, shards, test := testSetup(t, 8)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errs[0] = err
			return
		}
		errs[0] = fl.RunWorker(conn, 0, 2, cfg, baselines.NewFedAvg(), network, shards, test.Name)
	}()
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errs[1] = err
			return
		}
		kc := &killAfterFrames{Conn: conn, remain: 2}
		errs[1] = fl.RunWorkerOpts(kc, fl.WorkerOptions{Index: 1, Workers: 2}, cfg, baselines.NewFedAvg(), network, shards, test.Name)
	}()
	opt := fl.ServeOptions{Workers: 2, HeartbeatSec: -1, DisableReassign: true}
	res, serveErr := fl.Serve(ln, opt, cfg, baselines.NewFedAvg(), network, shards, test)
	ln.Close()
	wg.Wait()
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	if errs[0] != nil {
		t.Fatalf("surviving worker: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("killed worker returned nil — the kill never fired")
	}
	if got := res.Run.DegradedRounds(); got == 0 {
		t.Fatal("no Degraded rounds despite half the fleet being lost")
	}
	if got := res.Run.Total(metrics.LostWithWorker); got < 4 {
		t.Fatalf("%d updates lost with their worker, want >= 4 (one worker's clients per lost round)", got)
	}
	if got := res.Run.TotalDroppedUpdates(); got < 4 {
		t.Fatalf("TotalDroppedUpdates = %d, want >= 4 (one worker's clients per lost round)", got)
	}
	if res.Severs[fl.SeverRead] != 1 {
		t.Fatalf("severs %v, want the killed connection severed as a read error", res.Severs)
	}
	if len(res.Run.Rounds) != cfg.Rounds {
		t.Fatalf("run stopped early: %d/%d rounds", len(res.Run.Rounds), cfg.Rounds)
	}
}

// TestAdoptReplayWide pins the replay width on any host. At GOMAXPROCS 4
// a worker of Parallelism 1 trains its Adopt sub-batches on four slots,
// its own and three extra ones, on each path that replays history:
// re-admission of a re-dialed worker, reassignment onto the survivor,
// and the resync after a servercrash restore. Every run ends
// bit-identical to fl.Run under dense, top-k, async and deadline; the
// wire refuses checkpoints under async, so the resync path has no async
// row. The fleet has 80 clients, so a replayed round reaches a worker as
// 32- and 8-client sub-batches, long enough for the other slots to take
// a share. At GOMAXPROCS 1 no extra slot is grown.
func TestAdoptReplayWide(t *testing.T) {
	fl.CheckGoroutines(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const clients = 80
	frames := func(n int) func(net.Conn) net.Conn {
		return func(c net.Conn) net.Conn { return &killAfterFrames{Conn: c, remain: n} }
	}
	modes := []struct {
		name   string
		mutate func(*fl.Config)
		// cut wraps worker 1's first connection, which it closes after two
		// rounds' inbound frames under sync, deadline and top-k. An async
		// server reads an upload only when its modeled finish time comes
		// up, so a cut timed by the frames worker 1 reads can land after
		// the server holds every upload it will read from worker 1 (the run
		// then ends without a failover, or before the re-dial). Async cuts
		// the write side after worker 1's first Updates frame instead: the
		// server reads its 32 uploads (history to replay), 8 of its 40
		// initial clients are still on it, and all 80 initial uploads
		// finish before any re-dispatch, so the server waits for those 8
		// within the first 27 steps.
		cut func(net.Conn) net.Conn
	}{
		{"dense", func(*fl.Config) {}, frames(3)},
		{"topk", func(c *fl.Config) { c.Compress = compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.25} }, frames(3)},
		{"async", func(c *fl.Config) { c.Policy, c.AsyncBuffer, c.Rounds = fl.PolicyAsync, 3, 40 },
			func(c net.Conn) net.Conn { return &updatesWriter{Conn: c, killAt: 1, halfClose: true} }},
		{"deadline", func(c *fl.Config) { c.Policy, c.RoundDeadlineSec = fl.PolicyDeadline, 1e6 }, frames(3)},
	}
	paths := []struct {
		name string
		run  func(t *testing.T, cfg fl.Config, cut func(net.Conn) net.Conn)
	}{
		{"reconnect", func(t *testing.T, cfg fl.Config, cut func(net.Conn) net.Conn) { serveRedialed(t, cfg, clients, cut) }},
		{"kill", func(t *testing.T, cfg fl.Config, cut func(net.Conn) net.Conn) {
			wired := serveKilled(t, cfg, clients, cut, -1)
			if re, _ := totalRecovery(wired.Run); re == 0 {
				t.Fatal("no dispatch reassigned: failover never engaged")
			}
		}},
		{"servercrash", func(t *testing.T, cfg fl.Config, _ func(net.Conn) net.Conn) {
			network, shards, test := testSetup(t, clients)
			local, err := fl.Run(cfg, baselines.NewFedAvg(), network, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = []fault.Spec{{Kind: fault.KindServerCrash, Round: 3}}
			cfg.CheckpointEvery = 2
			wired := runWireClients(t, cfg, clients, 2, fl.ServeOptions{})
			if wired.Run.RecoveredRounds == 0 {
				t.Fatal("RecoveredRounds = 0: the crash never fired")
			}
			assertSameRun(t, local, wired)
		}},
	}
	for _, path := range paths {
		for _, mode := range modes {
			if path.name == "servercrash" && mode.name == "async" {
				continue
			}
			t.Run(path.name+"-"+mode.name, func(t *testing.T) {
				width := fl.ObserveReplayWidth(t)
				cfg := quickConfig()
				cfg.Parallelism = 1
				mode.mutate(&cfg)
				path.run(t, cfg, mode.cut)
				extra, widened := width()
				if extra == 0 || widened == 0 {
					t.Fatalf("%d extra slots grown, %d Adopt sub-batches ran on more than one slot; want both > 0", extra, widened)
				}
			})
		}
	}
	t.Run("procs1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		width := fl.ObserveReplayWidth(t)
		cfg := quickConfig()
		cfg.Parallelism = 1
		serveRedialed(t, cfg, clients, frames(3))
		if extra, widened := width(); extra != 0 || widened != 0 {
			t.Fatalf("GOMAXPROCS 1 grew %d extra slots and widened %d sub-batches, want 0 and 0", extra, widened)
		}
	})
}
