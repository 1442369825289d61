package fl

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/rng"
)

// slot bundles the training resources one in-flight local round needs: an
// execution engine (activation/gradient arenas sized for the batch) plus
// the w0/w/grad/scratch parameter buffers and the mini-batch staging
// buffers. Slots carry no client identity — every buffer is fully
// overwritten by each local round, so which slot serves which client is
// invisible in the results (the P=1-vs-P=8 bit-identity tests pin this).
type slot struct {
	eng                  *nn.Engine[float64] // float64 engine; nil under DType "f32"
	w0, w, grad, scratch []float64
	batchX               []float64
	batchY               []int
	// The float32 compute path (Config.DType "f32", DESIGN.md §10): the
	// fp32 engine replaces the fp64 one — halving the activation arenas,
	// the dominant slot memory — and the four fp32 twins bridge the hot
	// loop. w0/w/grad/scratch stay allocated as the float64 views every
	// algorithm hook reads; localUpdate32 keeps the two precisions in
	// sync at the hook boundary.
	eng32    *nn.Engine[float32]
	w32      []float32
	grad32   []float32
	corr32   []float32 // narrowed fused-correction vector
	batchX32 []float32
	// ctx is the slot's reusable StepCtx, so dispatching a local round
	// does not allocate (the interface call to GradAdjust would otherwise
	// force a fresh StepCtx to escape every round).
	ctx StepCtx
}

// roundTask is the work description shared by every job of one
// runLocalRounds call. It lives inside the pool so submitting a round
// writes plain struct fields instead of allocating a closure per round.
type roundTask struct {
	cfg        *Config
	alg        Algorithm
	pool       *slotPool
	clients    []client
	ids        []int
	round      int
	global     []float64
	prevGlobal []float64
	updates    []Update
	measured   []float64
	// now is the modeled dispatch time, which gates window-activated
	// corruption (adversary.go).
	now float64
}

// run executes job j (the j-th client of the round) on the worker's slot.
// Corruption and compression hooks live here, on the checkout path: a
// live fabricator replaces training outright; otherwise the client trains
// (from its corrupted shard while a data-level window is live) and the
// update-level injector chain mutates the delta in place before upload.
// With a codec live the outgoing delta — fabricated ones included; lossy
// transport applies to every upload — is then error-feedback encoded into
// the ring buffer's payload, and the dense delta is replaced by the
// decoded view so every aggregation rule sees exactly what arrived on the
// wire.
func (t *roundTask) run(j int, sl *slot) {
	c := &t.clients[t.ids[j]]
	start := time.Now()
	if fab := c.fabricatorAt(t.now); fab != nil {
		c.fabricate(fab, t.cfg, t.updates[j].Delta, t.round, t.global, t.prevGlobal)
	} else {
		if t.cfg.isF32() {
			localUpdate32(t.cfg, t.alg, c, sl, t.updates[j].Delta, t.round, t.global, c.samplerAt(t.now))
		} else {
			localUpdate(t.cfg, t.alg, c, sl, t.updates[j].Delta, t.round, t.global, c.samplerAt(t.now))
		}
		c.injectDelta(t.cfg, t.updates[j].Delta, t.round, t.now, t.global, t.prevGlobal)
	}
	if comp := t.pool.comp; comp != nil {
		comp.compress(&t.updates[j], sl)
	}
	t.measured[j] = time.Since(start).Seconds()
	t.updates[j].TrainLoss = c.lastLoss
}

// upload is one delta-ring entry: the dense delta buffer plus a sized
// encode buffer (the codec payload) that rides along when a codec is
// live, so encoding an upload in steady state allocates nothing.
//
// loss and measured are the remote-execution backfill fields: under
// fl.Serve, Update structs are copied into the scheduler's flight table
// at dispatch time, before the worker's reply lands, so the reply's
// train loss and measured wall time are written here — the one location
// both the flight copy and the ingest goroutine can reach — and copied
// out by the executor's settle step. The in-process executor never
// touches them.
type upload struct {
	delta    []float64
	pay      compress.Payload
	loss     float64
	measured float64
	// lost marks an in-flight dispatch whose worker died with failover
	// exhausted (no survivor to adopt it, no reconnect within grace):
	// settle stops waiting for it and the scheduler feeds it through the
	// quorum/degradation path instead of aborting the run.
	lost bool
	// via is the connection that delivered (or, while in flight, will
	// deliver) this upload — the reassignment-stable handle backpressure
	// accounting needs, since the owner table may have moved the client
	// to another worker after dispatch.
	via *serveConn
	// later is the queued one-client round still filling this upload
	// (runLater), nil once settleOne has joined it. Only the caller's
	// goroutine reads or writes it.
	later *laterJob
}

// laterJob is one one-client round that runLater queued on the pool's
// slots: a copy of the round task over the job's own client id, update
// and measured time, because the pool's task and the scheduler's per-
// dispatch buffers are reused by the next dispatch. done receives once
// when the job has run; ranOn is the slot that ran it.
type laterJob struct {
	task  roundTask
	id    [1]int
	upd   [1]Update
	meas  [1]float64
	done  chan struct{}
	ranOn *slot
}

// run trains the job on sl and signals done.
func (j *laterJob) run(sl *slot) {
	j.task.run(0, sl)
	j.ranOn = sl
	j.done <- struct{}{}
}

// executor runs dispatched local rounds and hands their results back to
// the scheduler. The in-process implementation is the slot pool, which
// computes updates inside runRound (or, for an async one-client dispatch,
// queues them with runLater); the remote
// implementation (serve.go) serializes dispatch frames to socket-
// connected workers inside runRound and defers the results, which is
// what lets round r+1's dispatch overlap round r's aggregation. The
// seam's contract: runRound fills updates with ring-backed buffers that
// MAY still be empty; no field of an update — Delta, Payload, TrainLoss
// — nor its measured time may be read until settle (whole round) or
// settleOne (one update) has returned for it, and every settled update
// must eventually be released.
type executor interface {
	runRound(cfg *Config, alg Algorithm, clients []client, ids []int, round int, now float64, global, prevGlobal []float64, updates []Update, measured []float64) error
	// settle blocks until every update of the round has its results in
	// place (position j of measured matches updates[j]).
	settle(updates []Update, measured []float64) error
	// settleOne blocks until one update's results are in place; measured
	// may be nil when the caller only needs the update itself.
	settleOne(u *Update, measured *float64) error
	release(u *Update)
	close()
}

// compressor is the slot pool's uplink codec state (DESIGN.md §7): the
// shared stateless codec plus the per-client mutable pieces — the
// error-feedback residual, allocated lazily on first participation like
// Scaffold's control variates (nil = zero vector), and the deterministic
// quantization stream, derived after every honest stream at setup so a
// codec-free config's draws are untouched. A client is in flight at most
// once at any instant under every policy, so workers touch disjoint
// residuals and streams without locking.
type compressor struct {
	codec   compress.Codec
	resid   [][]float64 // error-feedback residuals; nil rows until first use
	resid32 [][]float32 // fp32 residuals under DType "f32" (resid stays nil)
	streams []rng.RNG   // indexed by client id
}

// compress runs the error-feedback encode step for one upload on the
// checkout path: u.Delta is folded with the client's residual, encoded
// into the ring buffer's payload, and replaced by the decoded
// server-visible update; the residual keeps the mass the codec dropped
// for the client's next round (compress.EncodeEF).
func (c *compressor) compress(u *Update, sl *slot) {
	id := u.Client
	if c.resid32 != nil {
		// fp32 mode: the residual rides the slot dtype — it carries
		// client-local dropped mass, the same precision class as the
		// client's training state — while the encode/decode arithmetic
		// stays float64 on the widened delta (compress.EncodeEF32).
		e := c.resid32[id]
		if e == nil {
			e = make([]float32, len(u.Delta))
			c.resid32[id] = e
		}
		compress.EncodeEF32(c.codec, u.Payload, u.Delta, e, &c.streams[id], sl.scratch)
		return
	}
	e := c.resid[id]
	if e == nil {
		e = make([]float64, len(u.Delta))
		c.resid[id] = e
	}
	compress.EncodeEF(c.codec, u.Payload, u.Delta, e, &c.streams[id], sl.scratch)
}

// slotPool decouples per-client identity from per-client training
// resources. Exactly P = min(Parallelism, clients) slots exist, each
// pinned to one long-lived worker goroutine (worker 0's slot also serves
// one-client rounds and the later queue on the caller's goroutine), so a
// run's training memory is O(P·d) for the heavy state instead of O(n·d):
// a thousand-client fleet no longer owns a thousand engines (DESIGN.md
// §5). A wire worker that replays history grows up to GOMAXPROCS−P more
// (runWide).
//
// The pool also owns the delta ring: uploads (Update.Delta and the
// encoded Update.Payload) must outlive the slot that produced them —
// until the server consumes them at aggregation — so they are checked
// out of a free list sized by the steady-state in-flight count and
// returned by the scheduler once aggregated (or discarded). After the
// first round the ring is warm and checkout allocates nothing.
type slotPool struct {
	jobs chan int
	wg   sync.WaitGroup
	task roundTask
	// first is worker 0's slot, which runRound borrows to run a
	// one-client round on the calling goroutine, and settleOne to help
	// drain the later queue.
	first *slot
	// comp is the uplink codec state, nil for dense transport (the
	// entire compression path is skipped, bit-identical to the
	// pre-codec engine).
	comp *compressor

	mu        sync.Mutex
	free      []*upload // delta ring free list
	numParams int
	slots     int

	// The replay width (DESIGN.md §12). A wire worker trains an Adopt
	// sub-batch on width slots: its own slots plus width−slots extra ones,
	// grown by the first runWide. The first extra slot (own) serves the
	// calling goroutine, the rest pin goroutines that read only wide, so
	// live rounds keep exactly slots. width is 0 until the first runWide;
	// widened counts the sub-batches that ran on more than one slot.
	net     *nn.Network
	batch   int
	f32     bool
	width   int
	own     *slot
	wide    chan int
	widened int

	// The later queue (runLater): one-client async rounds queued for the
	// slots of workers 1..P−1, which the caller helps drain on first
	// while it waits in settleOne. It exists only in an async pool with
	// more than one slot. laterJobs holds one job per client, since a
	// client has at most one round in flight; unsettled counts the queued
	// jobs no settleOne has joined yet, and helped/offloaded count the
	// settled ones by whether first or a worker's slot ran them. All but
	// the channel belong to the caller's goroutine.
	later     chan *laterJob
	laterJobs []laterJob
	unsettled int
	helped    int
	offloaded int
}

// drainWide is the job a runWide sends each pinned worker: help drain
// wide instead of running one client.
const drainWide = -1

// newSlotPool creates the pool and starts its worker goroutines. Close
// must be called when the run ends to stop them. later asks for the later
// queue, which an in-process async run uses and a pool of one slot never
// starts.
func newSlotPool(net *nn.Network, cfg Config, n int, later bool) *slotPool {
	workers := min(cfg.parallelism(), n)
	p := &slotPool{
		jobs:      make(chan int, n),
		numParams: net.NumParams(),
		slots:     workers,
		net:       net,
		batch:     cfg.BatchSize,
		f32:       cfg.isF32(),
	}
	if later && workers > 1 {
		// A client is in flight at most once, so at most n jobs wait.
		p.later = make(chan *laterJob, n)
		p.laterJobs = make([]laterJob, n)
		for i := range p.laterJobs {
			p.laterJobs[i].done = make(chan struct{}, 1)
		}
	}
	for w := 0; w < workers; w++ {
		sl := p.newSlot()
		if w == 0 {
			// The caller drains the later queue on worker 0's slot.
			p.first = sl
			go p.worker(p.jobs, nil, sl)
		} else {
			go p.worker(p.jobs, p.later, sl)
		}
	}
	return p
}

// newSlot allocates one slot's engine and buffers.
func (p *slotPool) newSlot() *slot {
	inSize := p.net.InShape().Size()
	sl := &slot{
		w0:      make([]float64, p.numParams),
		w:       make([]float64, p.numParams),
		grad:    make([]float64, p.numParams),
		scratch: make([]float64, p.numParams),
		batchX:  make([]float64, p.batch*inSize),
		batchY:  make([]int, p.batch),
	}
	if p.f32 {
		sl.eng32 = nn.NewEngine32(p.net, p.batch)
		sl.w32 = make([]float32, p.numParams)
		sl.grad32 = make([]float32, p.numParams)
		sl.corr32 = make([]float32, p.numParams)
		sl.batchX32 = make([]float32, p.batch*inSize)
	} else {
		sl.eng = nn.NewEngine(p.net, p.batch)
	}
	return sl
}

// worker drains jobs, and later when it is not nil, onto its pinned slot
// until jobs closes.
func (p *slotPool) worker(jobs <-chan int, later <-chan *laterJob, sl *slot) {
	for {
		select {
		case j, ok := <-jobs:
			if !ok {
				return
			}
			if j == drainWide {
				p.drain(sl, cap(p.wide))
			} else {
				p.task.run(j, sl)
			}
			p.wg.Done()
		case lj := <-later:
			lj.run(sl)
		}
	}
}

// drain runs wide's queued jobs on sl until none is left or it has run
// limit of them.
func (p *slotPool) drain(sl *slot, limit int) {
	for range limit {
		select {
		case j := <-p.wide:
			p.task.run(j, sl)
			p.wg.Done()
		default:
			return
		}
	}
}

// close stops the worker goroutines, the extra slots' included. The pool
// must be idle, every queued later job settled. A ring-only pool
// (newRingPool) has no workers to stop.
func (p *slotPool) close() {
	if p.jobs != nil {
		close(p.jobs)
	}
	if p.wide != nil {
		close(p.wide)
	}
}

// settle implements executor: runRound already computed everything.
func (p *slotPool) settle([]Update, []float64) error { return nil }

// settleOne implements executor: a no-op unless runLater queued the
// update's round, which it then joins — running queued jobs on first
// while the one it waits for is not done — and whose train loss and
// measured time it copies out.
func (p *slotPool) settleOne(u *Update, measured *float64) error {
	if u.ring == nil || u.ring.later == nil {
		return nil
	}
	j := u.ring.later
	u.ring.later = nil
	p.join(j)
	u.TrainLoss = j.upd[0].TrainLoss
	if measured != nil {
		*measured = j.meas[0]
	}
	if j.ranOn == p.first {
		p.helped++
	} else {
		p.offloaded++
	}
	p.unsettled--
	return nil
}

// newRingPool creates a pool that owns only the delta ring — no slots,
// no worker goroutines, no engines. The remote executor (serve.go) uses
// it for the server side of a wire run, where local training never
// happens: ring entries hold the decoded uploads workers send back.
func newRingPool(numParams int) *slotPool {
	return &slotPool{numParams: numParams}
}

// runRound executes one round of local updates for the given client IDs
// on the worker pool, checking a delta buffer out of the ring for each
// update and filling updates/measured slot-by-slot (position j matches
// ids[j]). It returns once every client's update is written; the error
// is always nil (the executor seam's remote implementation can fail).
//
// A one-client round — an async trigger's re-dispatch, any async dispatch
// of a one-slot pool, and a one-client wire frame — runs on the calling
// goroutine in worker 0's slot instead of waking a worker and waiting for
// it: the slot is idle, because runRound is the only producer of jobs and
// waits for every job it queues, worker 0 never takes a later job, and
// which slot serves a client is invisible in the results.
func (p *slotPool) runRound(cfg *Config, alg Algorithm, clients []client, ids []int, round int, now float64, global, prevGlobal []float64, updates []Update, measured []float64) error {
	p.prepare(cfg, alg, clients, ids, round, now, global, prevGlobal, updates, measured)
	if len(ids) == 1 {
		p.task.run(0, p.first)
		return nil
	}
	p.wg.Add(len(ids))
	for j := range ids {
		p.jobs <- j
	}
	p.wg.Wait()
	return nil
}

// join waits until j has run, running queued jobs on first meanwhile.
func (p *slotPool) join(j *laterJob) {
	for {
		select {
		case <-j.done:
			return
		default:
		}
		select {
		case <-j.done:
			return
		case k := <-p.later:
			k.run(p.first)
		}
	}
}

// runLater is runRound for one async client dispatched between two
// server steps (DESIGN.md §5): with a later queue, the round goes on it
// for the slots instead of training inline, and returns at once, its
// update and measured time pending until settleOne. The job copies the
// round task, so it reads the global, prevGlobal and algorithm state the
// caller holds unchanged until it has settled every job it queued. Without
// a queue (one slot) it is runRound.
func (p *slotPool) runLater(cfg *Config, alg Algorithm, clients []client, ids []int, round int, now float64, global, prevGlobal []float64, updates []Update, measured []float64) {
	p.prepare(cfg, alg, clients, ids, round, now, global, prevGlobal, updates, measured)
	if p.later == nil {
		p.task.run(0, p.first)
		return
	}
	j := &p.laterJobs[ids[0]]
	j.task = p.task
	j.id[0], j.upd[0] = ids[0], updates[0]
	j.task.ids, j.task.updates, j.task.measured = j.id[:], j.upd[:], j.meas[:]
	updates[0].ring.later = j
	p.unsettled++
	p.later <- j
}

// runWide is runRound for a wire worker's Adopt sub-batch (DESIGN.md
// §12): history that is trained and discarded while the server waits for
// it, so it runs on every core the process may use instead of the
// Parallelism slots live rounds keep. The first call observes
// runtime.GOMAXPROCS and grows the extra slots. Each call queues the
// sub-batch on wide and sends every pinned worker a drainWide; the
// caller (on own), the pinned workers and the extra slots then take jobs
// until none is left, so no slot idles while the queue is not empty. The
// extra slots check ring entries out of, and back into, this pool's one
// ring and read its comp. The clients of a frame are distinct and every
// stream and residual is per client, so the width is invisible in the
// results.
func (p *slotPool) runWide(cfg *Config, alg Algorithm, clients []client, ids []int, round int, global []float64, updates []Update, measured []float64) error {
	if p.width == 0 {
		p.width = max(p.slots, min(runtime.GOMAXPROCS(0), cap(p.jobs)))
		if p.width > p.slots {
			p.own = p.newSlot()
			p.wide = make(chan int, cap(p.jobs))
			for range p.width - p.slots - 1 {
				go p.worker(p.wide, nil, p.newSlot())
			}
		}
	}
	if p.own == nil || len(ids) == 1 {
		return p.runRound(cfg, alg, clients, ids, round, 0, global, global, updates, measured)
	}
	p.prepare(cfg, alg, clients, ids, round, 0, global, global, updates, measured)
	p.wg.Add(len(ids) + p.slots)
	for j := range ids {
		p.wide <- j
	}
	for range p.slots {
		p.jobs <- drainWide
	}
	// The caller leaves at least one job to the other slots, so every
	// sub-batch widened counts ran on more than one slot.
	p.drain(p.own, len(ids)-1)
	p.widened++
	p.wg.Wait()
	return nil
}

// prepare checks a ring entry out for each update of a round and writes
// the round's task for the slots to read.
func (p *slotPool) prepare(cfg *Config, alg Algorithm, clients []client, ids []int, round int, now float64, global, prevGlobal []float64, updates []Update, measured []float64) {
	for j, id := range ids {
		u := p.getUpload()
		updates[j] = Update{
			Client:     id,
			Delta:      u.delta,
			NumSamples: clients[id].data.Len(),
			Corrupt:    clients[id].corrupt(),
			ring:       u,
		}
		if p.comp != nil {
			updates[j].Payload = &u.pay
		}
	}
	p.task = roundTask{
		cfg:        cfg,
		alg:        alg,
		pool:       p,
		clients:    clients,
		ids:        ids,
		round:      round,
		global:     global,
		prevGlobal: prevGlobal,
		updates:    updates,
		measured:   measured,
		now:        now,
	}
}

// getUpload checks a ring entry (delta buffer + sized encode buffer) out
// of the ring, allocating only when the free list is empty (cold start
// or a new in-flight high-water mark).
func (p *slotPool) getUpload() *upload {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		u := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		u.lost, u.via = false, nil
		return u
	}
	p.mu.Unlock()
	u := &upload{delta: make([]float64, p.numParams)}
	if p.comp != nil {
		p.comp.codec.Grow(&u.pay, p.numParams)
	}
	return u
}

// release returns an update's ring entry and clears its borrowed views.
// The caller must not retain Delta or Payload past this call. Updates
// not built by runRound (tests constructing them by hand) carry no ring
// entry and are left untouched.
func (p *slotPool) release(u *Update) {
	if u.ring == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, u.ring)
	p.mu.Unlock()
	u.ring, u.Delta, u.Payload = nil, nil, nil
}
