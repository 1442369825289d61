package fl

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/wire"
)

// ErrServerPaused is returned by RunWorker when the server shut the run
// down before completion — an interrupted (SIGINT/SIGTERM) flserver that
// intends to restart from a checkpoint. The worker should re-dial and
// re-attach; a clean Bye (run complete) returns nil instead.
var ErrServerPaused = errors.New("fl: server paused the run (re-attach after it restarts)")

// WorkerOptions configures the connection-level behavior of RunWorkerOpts.
type WorkerOptions struct {
	// Index and Workers place this worker in the fleet: it initially owns
	// the contiguous client range [Index·n/W, (Index+1)·n/W). Failover may
	// later adopt clients outside that range onto it.
	Index, Workers int
	// Attach is the re-attach counter sent in Hello: 0 on the first
	// connection, incremented on every re-dial after a connection loss.
	// The server does not read it: any valid Hello that arrives during a
	// run is parked as a reconnect of its index, and re-admission resumes
	// the worker from the state it kept, or rebuilds its rng streams by a
	// history replay, by the claim the Hello carries, whatever the counter.
	Attach int
	// HeartbeatSec bounds read liveness: when positive, the worker arms a
	// read deadline of three HeartbeatSec before every frame read, so a
	// dead server is detected instead of blocking forever. It should match the server's
	// ServeOptions.HeartbeatSec (the server's Pings are what keep the
	// deadline fed between dispatches). 0 disables the deadline.
	HeartbeatSec float64
}

// RunWorker executes the client side of a wire run with default
// connection options; see RunWorkerOpts.
func RunWorker(conn net.Conn, index, workers int, cfg Config, alg Algorithm, network *nn.Network, shards []*dataset.Dataset, dsName string) error {
	return RunWorkerOpts(conn, WorkerOptions{Index: index, Workers: workers}, cfg, alg, network, shards, dsName)
}

// RunWorkerOpts executes the client side of a wire run (cmd/flserver
// -mode worker): it replays the engine's rng derivation order from the
// shared seed, announces itself with the config fingerprint, and then
// trains every dispatched batch on an in-process slot pool, streaming
// the results back in one Updates frame per uploadBatch clients. The
// connection is closed when it returns.
//
// Bit-identity with fl.Run rests on the derivation ORDER contract, which
// the worker replays through the server's own constructor (newFleet):
// init, every client sampler, participation, every compression stream —
// exactly the in-process sequence — leaving unused the streams the
// server owns (init, participation). A wire run declares no adversaries,
// and fault streams derive last, so skipping both here leaves every
// worker-held stream bit-identical to its in-process twin. Given
// identical streams and identical training code, every delta, loss, and
// encoded payload matches the in-process run to the bit.
//
// Failover (DESIGN.md §12) extends the contract across worker loss: the
// worker derives streams for ALL n clients but only advances the ones it
// trains, so the server can move a dead worker's clients onto a survivor
// by replaying their full dispatch history as Adopt frames (train and
// discard — each replayed batch advances the sampler and quantization
// streams exactly as the original training did). A Restore frame resets
// the worker to its freshly-started state (fresh root, empty residuals)
// so the same replay mechanism serves a server restarting from a
// checkpoint behind live workers. A worker whose connection breaks keeps
// its state (keptState), and the next RunWorkerOpts of its fleet slot
// claims it in its Hello: the server resumes it with a Resume frame when
// the claim agrees with the dispatch record, and replays otherwise.
func RunWorkerOpts(conn net.Conn, opt WorkerOptions, cfg Config, alg Algorithm, network *nn.Network, shards []*dataset.Dataset, dsName string) error {
	defer conn.Close()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := validateWire(&cfg, alg); err != nil {
		return err
	}
	index, workers := opt.Index, opt.Workers
	if workers <= 0 || index < 0 || index >= workers {
		return fmt.Errorf("fl: worker index %d out of range [0,%d)", index, workers)
	}
	n := len(shards)
	fp := serveFingerprint(&cfg, alg.Name(), dsName, shards, network.NumParams())

	dataSizes, err := shardSizes(shards)
	if err != nil {
		return err
	}
	env := &Env{
		Net:        network,
		NumClients: n,
		NumParams:  network.NumParams(),
		DataSizes:  dataSizes,
		Devices:    cfg.devices(n),
		Cfg:        cfg,
	}
	alg, err = wrapStack(alg, &cfg)
	if err != nil {
		return err
	}
	alg.Setup(env)

	// The pool is sized for the whole fleet, not just the initially owned
	// range: failover can adopt any client onto this worker. Live rounds
	// train on Parallelism slots; adopted history grows the pool to every
	// core the process may use (DESIGN.md §12).
	pool := newSlotPool(network, cfg, min(cfg.parallelism(), n), n, false)
	defer pool.close()
	if workerObserve != nil {
		workerObserve(pool)
	}

	// claim is the state a previous RunWorkerOpts of this fleet slot kept
	// when its connection broke. The server's first frame decides: Resume
	// installs it, anything else drops it for a fresh state. cur is the
	// state the worker trains.
	key := keptKey{fp, index}
	v, _ := kept.LoadAndDelete(key)
	claim, _ := v.(*keptState)
	var cur *keptState
	// reset (re)builds every client-held rng stream by replaying the
	// derivation order from a fresh root (newFleet) — the worker's
	// freshly-started state, which a Restore frame rewinds to before a
	// history replay.
	reset := func() error {
		f, err := newFleet(&cfg, shards, 0, false)
		if err != nil {
			return err
		}
		if cur == nil {
			cur = &keptState{trained: make([]int32, n)}
		}
		clear(cur.trained)
		cur.clients, cur.comp, cur.token = f.clients, f.comp, 0
		pool.comp = f.comp
		return nil
	}
	if claim == nil {
		if err := reset(); err != nil {
			return err
		}
	}

	w := &workerLoop{conn: conn, fp: fp, heartbeat: opt.HeartbeatSec}
	w.cond = sync.NewCond(&w.mu)
	// A worker whose connection broke keeps what it would claim on the next
	// dial: the undecided claim, or the state it trained.
	sendFailed := false
	defer func() {
		if !sendFailed && !w.connLost() {
			return
		}
		if claim != nil {
			kept.Store(key, claim)
		} else if cur != nil && cur.token != 0 {
			kept.Store(key, cur)
		}
	}()

	hello := wire.BeginFrame(nil, wire.FrameHello)
	hello = appendHello(hello, fp, index, workers, opt.Attach, claim)
	wire.EndFrame(hello, 0)
	if err := w.write(hello); err != nil {
		sendFailed = true
		return fmt.Errorf("fl: sending hello: %w", err)
	}
	go w.readLoop()

	wbuf := hello
	updates := make([]Update, uploadBatch)
	measured := make([]float64, uploadBatch)
	for {
		m, ok := w.next()
		if !ok {
			break
		}
		if claim != nil {
			if m.resume {
				cur, claim = claim, nil
				pool.comp = cur.comp
				if m.resend && cur.unsent != nil {
					if err := w.write(cur.unsent); err != nil {
						sendFailed = true
						return fmt.Errorf("fl: resending updates: %w", err)
					}
				}
				cur.unsent, cur.unsentIDs = nil, nil
				continue
			}
			claim = nil
			if err := reset(); err != nil {
				return err
			}
			if m.restore {
				continue
			}
		}
		if m.resume {
			return fmt.Errorf("fl: resume frame with no kept state to resume")
		}
		if m.restore {
			if err := reset(); err != nil {
				return err
			}
			continue
		}
		k := len(m.ids)
		for _, id := range m.ids {
			if id < 0 || id >= n {
				return fmt.Errorf("fl: dispatched client %d outside fleet [0,%d)", id, n)
			}
		}
		if k > n {
			// A client is in flight at most once under every policy, so a
			// batch larger than the fleet is a protocol violation.
			return fmt.Errorf("fl: dispatch of %d clients exceeds fleet size %d", k, n)
		}
		cur.token = m.token
		// The batch trains and uploads uploadBatch clients at a time, so
		// the Updates frame and the update buffers hold one sub-batch, not
		// the whole batch. Nothing makes the server read a sub-batch while
		// the next one trains: while training keeps every P busy, Go's
		// scheduler polls the socket only once a P goes idle, and on the
		// loopback benchmark about half the frames wait for the end of
		// training (DESIGN.md §11). Clients are independent (per-client
		// streams and residuals), so the split is invisible in the
		// results.
		for lo := 0; lo < k; lo += uploadBatch {
			ids := m.ids[lo:min(lo+uploadBatch, k)]
			ups, meas := updates[:len(ids)], measured[:len(ids)]
			width := cfg.parallelism()
			if m.adopt {
				width = max(width, runtime.GOMAXPROCS(0))
			}
			pool.train(width, m.adopt, &cfg, alg, cur.clients, ids, m.round, m.global, m.global, ups, meas)
			for _, id := range ids {
				cur.trained[id]++
			}
			// Adopted history is trained and discarded: the training
			// advanced this worker's streams (and EF residuals) exactly as
			// the original run did, and the server already holds the
			// results.
			if !m.adopt {
				buf := wire.BeginFrame(wbuf[:0], wire.FrameUpdates)
				buf = wire.AppendUvarint(buf, uint64(len(ids)))
				for j := range ups {
					buf = appendUpdateEntry(buf, &ups[j], meas[j])
				}
				wire.EndFrame(buf, 0)
				wbuf = buf
				if w.stopped() {
					// The run ended while this batch trained; the rest is
					// abandoned, not sent (the server is only waiting for EOF,
					// or, when the connection broke, for the claim).
					cur.unsent, cur.unsentIDs = buf, ids
					return w.readErr()
				}
				if err := w.write(buf); err != nil {
					cur.unsent, cur.unsentIDs, sendFailed = buf, ids, true
					return fmt.Errorf("fl: sending updates: %w", err)
				}
			}
			for j := range ups {
				pool.release(&ups[j])
			}
		}
	}
	return w.readErr()
}

// keptState is a worker's whole state (WireSafe), kept across a lost
// connection for the next RunWorkerOpts of the same fleet slot to claim
// (DESIGN.md §12).
type keptState struct {
	clients []client
	comp    *compressor
	// trained counts each client's trained dispatches since the last
	// reset. Entries train in the order of the server's dispatch history,
	// so k trained entries are the history's first k.
	trained []int32
	// token is the server run that dispatched them.
	token uint64
	// unsent is the Updates frame of the one trained sub-batch that never
	// went out, and unsentIDs its clients.
	unsent    []byte
	unsentIDs []int
}

// keptKey is a fleet slot: the config fingerprint and the worker index.
type keptKey struct {
	fp    uint64
	index int
}

// kept maps a fleet slot (keptKey) to its *keptState: a worker that loses
// its connection while its process lives on stores its state here, and
// the next RunWorkerOpts of the slot takes it.
var kept sync.Map

// workerObserve is a test hook: when set, RunWorkerOpts hands it the
// worker's slot pool, whose replay-width fields the test reads after the
// worker returns.
var workerObserve func(*slotPool)

// uploadBatch is how many clients of a dispatched batch a worker trains
// before it sends their Updates frame. Rounds/s on the dense loopback
// workload peaks from 16 to 32 and falls at 8, at 128 and with one frame
// per batch (DESIGN.md §11).
const uploadBatch = 32

// workerLoop is RunWorker's connection state: the reader goroutine that
// turns incoming frames into a dispatch queue for the training loop. The
// queue never blocks the reader, so Pings are answered while dispatches
// wait. Its depth is bounded by what the server sends: a live dispatch
// names only clients not already in flight, and a failover replay sends
// one frame per round of history.
type workerLoop struct {
	conn      net.Conn
	fp        uint64
	heartbeat float64

	// wmu serializes frame writes: the training loop writes Hello/Updates
	// while the reader goroutine answers Pings with Pongs.
	wmu     sync.Mutex
	pongBuf []byte

	mu    sync.Mutex
	cond  *sync.Cond
	queue []*dispatchMsg
	done  bool
	// paused marks a Bye whose body flags an interrupted (not completed)
	// run; readErr surfaces it as ErrServerPaused.
	paused bool
	// lost marks a stream that ended on a connection error, not on a
	// frame: the worker keeps its state for the next dial.
	lost bool
	err  error
}

// write sends one pre-framed buffer under the write lock.
func (w *workerLoop) write(frame []byte) error {
	w.wmu.Lock()
	_, err := w.conn.Write(frame)
	w.wmu.Unlock()
	return err
}

// next pops the oldest queued dispatch, waiting for one; ok is false
// once the stream has ended (cleanly or not — readErr distinguishes).
// Dispatches still queued at that point are abandoned: Bye means the run
// completed, so the server has no use for their results.
func (w *workerLoop) next() (*dispatchMsg, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.queue) == 0 && !w.done {
		w.cond.Wait()
	}
	if w.done {
		return nil, false
	}
	m := w.queue[0]
	w.queue = w.queue[1:]
	return m, true
}

// stopped reports whether the stream has ended.
func (w *workerLoop) stopped() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done
}

// readErr reports why the job stream ended: nil after a clean Bye,
// ErrServerPaused after an interrupting one.
func (w *workerLoop) readErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil && w.paused {
		return ErrServerPaused
	}
	return w.err
}

// connLost reports whether the stream ended on a connection error.
func (w *workerLoop) connLost() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lost
}

// fail records the terminal error and releases the training loop; lost
// marks a connection error.
func (w *workerLoop) fail(err error, lost bool) {
	w.mu.Lock()
	if w.err == nil {
		w.err, w.lost = err, lost
	}
	w.done = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// readLoop decodes incoming frames until the stream ends. Dispatches and
// the failover frames (Adopt, Restore, Resume) queue up behind the
// training loop (the queue preserves the server's per-client replay
// order); Ping is answered immediately; Bye ends the stream cleanly.
func (w *workerLoop) readLoop() {
	var fr wire.Frame
	for {
		if w.heartbeat > 0 {
			deadline := time.Duration(silenceHeartbeats * w.heartbeat * float64(time.Second))
			_ = w.conn.SetReadDeadline(clk.Now().Add(deadline))
		}
		if err := wire.ReadFrame(w.conn, &fr); err != nil {
			w.fail(fmt.Errorf("fl: reading from server: %w", err), true)
			return
		}
		var m *dispatchMsg
		switch fr.Type {
		case wire.FrameDispatch, wire.FrameAdopt:
			var err error
			if m, err = parseDispatch(fr.Body); err != nil {
				w.fail(err, false)
				return
			}
			m.adopt = fr.Type == wire.FrameAdopt
		case wire.FrameRestore:
			m = &dispatchMsg{restore: true}
		case wire.FrameResume:
			resend, err := parseResume(fr.Body)
			if err != nil {
				w.fail(err, false)
				return
			}
			m = &dispatchMsg{resume: true, resend: resend}
		case wire.FramePing:
			w.wmu.Lock()
			var err error
			w.pongBuf, err = wire.WriteFrame(w.conn, wire.FramePong, nil, w.pongBuf)
			w.wmu.Unlock()
			if err != nil {
				w.fail(fmt.Errorf("fl: answering ping: %w", err), true)
				return
			}
		case wire.FrameBye:
			w.mu.Lock()
			w.paused = len(fr.Body) > 0 && fr.Body[0] == byePausing
			w.done = true
			w.cond.Broadcast()
			w.mu.Unlock()
			return
		case wire.FrameReject:
			w.fail(fmt.Errorf("fl: server rejected worker (this worker's config fingerprint %016x): %s", w.fp, fr.Body), false)
			return
		default:
			w.fail(fmt.Errorf("fl: unexpected frame type %d from server", fr.Type), false)
			return
		}
		if m != nil {
			w.mu.Lock()
			w.queue = append(w.queue, m)
			w.cond.Broadcast()
			w.mu.Unlock()
		}
	}
}
