package fl

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/nn"
)

// job is what the pool's queue carries: a task whose positions a runner
// claims and runs until none is left. A client round and an evaluation
// (eval.go) are the two kinds. Every runner — a worker goroutine on its
// pinned slot, or a caller helping on the pool's own slot — runs any job.
type job interface {
	work() *progress
	run(i int, sl *slot)
}

// progress counts one task down. A task has n positions and the jobs
// queued for it; left reaches zero, and done receives once, when every
// position has run and every queued job has been taken off the queue, so
// no job of a finished task is still queued when its owner reuses it.
type progress struct {
	next atomic.Int32
	n    int32
	left atomic.Int32
	done chan struct{}
}

// claim hands out the task's next position below limit, if one is left.
func (w *progress) claim(limit int32) (int, bool) {
	for {
		i := w.next.Load()
		if i >= limit {
			return 0, false
		}
		if w.next.CompareAndSwap(i, i+1) {
			return int(i), true
		}
	}
}

// finish counts one position run, or one queued job taken.
func (w *progress) finish() {
	if w.left.Add(-1) == 0 {
		w.done <- struct{}{}
	}
}

func (w *progress) work() *progress { return w }

// roundTask is one dispatched round of local updates: the state its
// clients train from, where their results go, and its progress. The pool
// holds one for the round its caller runs now and, in an async pool, one
// per client for rounds queued to run later (runLater); a queued round
// keeps its client id, update and measured time in id, upd and meas,
// because the scheduler reuses its own dispatch buffers at once.
type roundTask struct {
	progress
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

	id   [1]int
	upd  [1]Update
	meas [1]float64
}

// run trains position j (the j-th client of the round) on sl. A
// fabricator replaces training outright; otherwise the client trains
// (from its corrupted shard, when it has one) and the update-level
// injectors mutate the delta in place. With a codec live every outgoing
// delta is then error-feedback encoded into the ring entry's payload and
// replaced by the decoded view, so every aggregation rule sees exactly
// what arrived on the wire.
func (t *roundTask) run(j int, sl *slot) {
	c := &t.clients[t.ids[j]]
	start := time.Now()
	if fab := c.fabricator(); fab != nil {
		c.fabricate(fab, t.cfg, t.updates[j].Delta, t.round, t.global, t.prevGlobal)
	} else {
		localUpdate(t.cfg, t.alg, c, sl, t.updates[j].Delta, t.round, t.global, c.trainSampler())
		c.injectDelta(t.cfg, t.updates[j].Delta, t.round, t.global, t.prevGlobal)
	}
	if comp := t.pool.comp; comp != nil {
		comp.compress(&t.updates[j], sl)
	}
	t.measured[j] = time.Since(start).Seconds()
	t.updates[j].TrainLoss = c.lastLoss
	if sl != t.pool.own {
		t.pool.offloaded.Add(1)
	} else if t != &t.pool.round {
		t.pool.helped++ // only the caller runs on own
	}
}

// upload is one delta-ring entry: the dense delta buffer plus a sized
// encode buffer (the codec payload) that rides along when a codec is
// live, so encoding an upload in steady state allocates nothing.
//
// loss and measured are the remote executor's backfill fields: under
// fl.Serve the Update is copied into the flight table before the
// worker's reply lands, so the reply's train loss and measured time are
// written here, where both the copy and the ingest goroutine can reach
// them, and copied out by settle.
type upload struct {
	delta    []float64
	pay      compress.Payload
	loss     float64
	measured float64
	// lost marks a dispatch whose worker died with failover exhausted:
	// settle stops waiting for it and the scheduler feeds it through the
	// quorum/degradation path instead of aborting the run.
	lost bool
	// queued is the round runLater queued to fill this upload, nil once
	// settleOne has joined it; only the caller's goroutine touches it.
	queued *roundTask
}

// slotPool decouples per-client identity from per-client training
// resources, and runs every job of a run on one queue (DESIGN.md §5). Its
// slots — the caller's and one per worker goroutine — keep training
// memory at O(slots·d), not O(n·d). A round's width is how many of them
// may train it at once: the caller plus width−1 queued jobs.
//
// The pool also owns the delta ring: uploads outlive the slot that
// produced them, until the server consumes them, so they are checked out
// of a free list and returned once aggregated or discarded. After the
// first round the ring is warm and checkout allocates nothing.
type slotPool struct {
	queue chan job
	// slots[0], own, is the caller's, and every other slot is pinned to a
	// worker goroutine; a ring-only pool has none.
	slots []*slot
	own   *slot
	round roundTask
	// later holds one queued round per client (runLater) in an async pool
	// with workers. offloaded counts the client rounds worker goroutines
	// ran; queued and helped count the rounds runLater queued and those of
	// them the caller ran itself.
	later          []roundTask
	offloaded      atomic.Int64
	queued, helped int
	// comp is the uplink codec state, nil for dense transport.
	comp *compressor

	mu        sync.Mutex
	free      []*upload // delta ring free list
	numParams int
	// net and cfg build the slots a wider round grows (train).
	net *nn.Network
	cfg Config
}

// newSlotPool creates a pool of slots slots and starts a worker goroutine
// for every slot but the caller's. later asks for a queued-round table
// over n clients, which an in-process async run uses. close must be
// called when the run ends to stop the workers.
func newSlotPool(net *nn.Network, cfg Config, slots, n int, later bool) *slotPool {
	p := &slotPool{numParams: net.NumParams(), net: net, cfg: cfg}
	// A round's width−1 jobs and an evaluation's shards (no more than the
	// slots or cores) fit, plus one job per queued client round; a client
	// is in flight at most once, so at most n rounds are queued.
	queued := 2 * max(slots, runtime.GOMAXPROCS(0))
	p.round.done = make(chan struct{}, 1)
	if later && slots > 1 {
		p.later = make([]roundTask, n)
		for i := range p.later {
			p.later[i].done = make(chan struct{}, 1)
		}
		queued += n
	}
	p.queue = make(chan job, queued)
	p.grow(slots)
	return p
}

// grow adds slots until the pool has width, each pinned to a new worker
// goroutine but the first, which is the caller's own.
func (p *slotPool) grow(width int) {
	for len(p.slots) < width {
		sl := newSlot(p.net, p.cfg)
		if p.own == nil {
			p.own = sl
		} else {
			go p.worker(sl)
		}
		p.slots = append(p.slots, sl)
	}
}

// newRingPool creates a pool with no slots and no worker goroutines: the
// server side of a wire run (serve.go), whose ring entries hold the
// decoded uploads workers send back, and whose caller runs the
// evaluations queued on it.
func newRingPool(numParams int) *slotPool {
	return &slotPool{queue: make(chan job, runtime.GOMAXPROCS(0)), numParams: numParams}
}

// evalWidth returns how many shards an evaluation queued on the pool is
// split into: one per slot, up to the cores. A pool that never queues a
// client round — a ring pool, or one of one slot — first starts
// GOMAXPROCS−1 slot-less runners, so its evaluations still use every
// core; such a pool must not be trained wider than one slot.
func (p *slotPool) evalWidth() int {
	g := runtime.GOMAXPROCS(0)
	if len(p.slots) > 1 {
		return min(len(p.slots), g)
	}
	for range g - 1 {
		go p.worker(nil)
	}
	return g
}

// worker runs queued jobs on its pinned slot until the queue closes.
func (p *slotPool) worker(sl *slot) {
	for j := range p.queue {
		runJob(j, sl)
	}
}

// runJob runs j's positions on sl until none is left to claim, then
// counts the job taken.
func runJob(j job, sl *slot) {
	w := j.work()
	runPositions(j, sl, w.n)
	w.finish()
}

// runPositions runs j's unclaimed positions below limit on sl.
func runPositions(j job, sl *slot, limit int32) {
	w := j.work()
	for i, ok := w.claim(limit); ok; i, ok = w.claim(limit) {
		j.run(i, sl)
		w.finish()
	}
}

// start opens j's n positions and queues jobs jobs for it.
func (p *slotPool) start(j job, n, jobs int) {
	w := j.work()
	w.n = int32(n)
	w.left.Store(int32(n + jobs))
	w.next.Store(0)
	for range jobs {
		p.queue <- j
	}
}

// join is the pool's one join: the caller runs j's unclaimed positions on
// own, then runs queued jobs of any task on own until j is done. With
// keep > 0 the caller leaves j's last keep positions to the jobs it
// queued for j, and only waits once its share is run, so the task
// always spreads past the caller's slot.
func (p *slotPool) join(j job, keep int) {
	w := j.work()
	runPositions(j, p.own, w.n-int32(keep))
	for keep == 0 && w.left.Load() > 0 {
		select {
		case <-w.done:
			return
		case o := <-p.queue:
			runJob(o, p.own)
		}
	}
	<-w.done
}

// help runs the jobs queued now on own and returns when the queue is
// empty; the remote executor calls it before it blocks on worker replies.
func (p *slotPool) help() {
	for {
		select {
		case o := <-p.queue:
			runJob(o, p.own)
		default:
			return
		}
	}
}

// close stops the worker goroutines; they run whatever is still queued
// first.
func (p *slotPool) close() { close(p.queue) }

// runRound implements executor: it trains the round on every slot and
// returns when every update is written.
func (p *slotPool) runRound(cfg *Config, alg Algorithm, clients []client, ids []int, round int, global, prevGlobal []float64, updates []Update, measured []float64) {
	p.train(len(p.slots), false, cfg, alg, clients, ids, round, global, prevGlobal, updates, measured)
}

// train is runRound at the given width, growing a slot and its worker
// goroutine for each position of width the pool lacks: a wire worker
// keeps Parallelism slots until its first wide Adopt sub-batch (DESIGN.md
// §12). A wide round's caller leaves the last client to the jobs it
// queued, so the round always trains on more than one slot.
func (p *slotPool) train(width int, wide bool, cfg *Config, alg Algorithm, clients []client, ids []int, round int, global, prevGlobal []float64, updates []Update, measured []float64) {
	width = min(width, len(ids))
	p.grow(width)
	t, keep := &p.round, 0
	if wide && width > 1 {
		keep = 1
	}
	p.prepare(t, cfg, alg, clients, ids, round, global, prevGlobal, updates, measured)
	p.start(t, len(ids), width-1)
	p.join(t, keep)
}

// settle implements executor: runRound already computed everything.
func (p *slotPool) settle([]Update, []float64) {}

// runLater is runRound for one async client dispatched between two
// server steps (DESIGN.md §5): in a pool with workers, the round is queued
// on its client's task and runLater returns at once, its update's train
// loss and measured time pending until settleOne. The round reads the
// global, prevGlobal and algorithm state the caller holds unchanged until
// it has settled every round it queued. A pool of one slot trains it now.
func (p *slotPool) runLater(cfg *Config, alg Algorithm, clients []client, ids []int, round int, global, prevGlobal []float64, updates []Update, measured []float64) {
	if p.later == nil {
		p.train(1, false, cfg, alg, clients, ids, round, global, prevGlobal, updates, measured)
		return
	}
	t := &p.later[ids[0]]
	t.id[0] = ids[0]
	p.prepare(t, cfg, alg, clients, t.id[:], round, global, prevGlobal, t.upd[:], t.meas[:])
	updates[0] = t.upd[0]
	updates[0].ring.queued = t
	p.queued++
	p.start(t, 1, 1)
}

// settleOne implements executor: a no-op unless runLater queued the
// update's round, which it then joins, copying out its train loss and
// measured time.
func (p *slotPool) settleOne(u *Update, measured *float64) {
	if u.ring == nil || u.ring.queued == nil {
		return
	}
	t := u.ring.queued
	u.ring.queued = nil
	p.join(t, 0)
	u.TrainLoss = t.upd[0].TrainLoss
	if measured != nil {
		*measured = t.meas[0]
	}
}

// prepare checks a ring entry out for each update of a round and writes
// the round into t.
func (p *slotPool) prepare(t *roundTask, cfg *Config, alg Algorithm, clients []client, ids []int, round int, global, prevGlobal []float64, updates []Update, measured []float64) {
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
	t.cfg, t.alg, t.pool, t.clients, t.ids = cfg, alg, p, clients, ids
	t.round, t.global, t.prevGlobal = round, global, prevGlobal
	t.updates, t.measured = updates, measured
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
		u.lost = false
		return u
	}
	p.mu.Unlock()
	u := &upload{delta: make([]float64, p.numParams)}
	if p.comp != nil {
		p.comp.codec.Grow(&u.pay, p.numParams)
	}
	return u
}

// release returns an update's ring entry and clears its borrowed views;
// the caller must not retain Delta or Payload. Updates built by hand in
// tests carry no ring entry and are left untouched.
func (p *slotPool) release(u *Update) {
	if u.ring == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, u.ring)
	p.mu.Unlock()
	u.ring, u.Delta, u.Payload = nil, nil, nil
}
