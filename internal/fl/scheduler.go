package fl

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/vecmath"
)

// scheduler is the event-driven round engine behind Run. One instance
// drives one training run under one aggregation policy; its virtual clock
// is modeled (simclock) time, so every scheduling decision — straggler
// drops, arrival order, staleness — is a pure function of the config and
// therefore bit-reproducible at any parallelism level.
//
// Local computation reads the state of the server version a client was
// *dispatched* at, not the state when its modeled finish event fires: the
// algorithm state a client reads (correction vectors, control variates)
// is exactly the state at its dispatch version, which is what makes
// stale-correction dynamics faithful without racing the server's
// aggregation step. It runs at dispatch, or — an async arrival's
// re-dispatch — queued on the pool and joined before the next aggregate.
// Per-client algorithm state written by EndLocal therefore reflects the
// client's latest delivered round (a failed attempt trains nothing),
// which under the async policy may be ahead of an update still waiting in
// the server buffer.
//
// Steady-state rounds are allocation-free: the per-round ids/updates/
// measured slices, the participant sampler's buffers, the aggregation
// context, the async flight table, and the upload deltas (slot-pool ring,
// pool.go) are all owned by the scheduler and reused round over round
// (pinned by TestSteadyStateAllocs).
type scheduler struct {
	cfg     Config
	alg     Algorithm
	clients []client
	env     *Env
	pool    *slotPool
	// exec runs dispatched local rounds: the slot pool itself for an
	// in-process run, the remote executor for a wire run (serve.go). Every
	// scheduling path goes through it; s.pool remains for the ring-and-
	// compressor state that both executors share (and for checkpointing,
	// which the wire path rejects).
	exec     executor
	params   []float64
	wPrev    []float64
	active   []bool
	expelled map[int]int
	run      *metrics.Run
	// eval is the evaluation job commit queues on the pool; evalPending
	// marks the last record as awaiting its result.
	eval        *evalTask
	evalPending bool
	// baseRound is the nominal-device modeled duration of one local round
	// (K steps with the algorithm's cost profile); per-client durations
	// scale it by the device's speed factor.
	baseRound float64
	partRNG   *rng.RNG

	// activeIDs lists the active clients in ascending order (capacity n).
	// It is rebuilt in place only where active changes — expulsion in
	// aggregate and the load direction of the checkpoint walk — so a
	// round reads it instead of walking the fleet's flags.
	activeIDs []int
	// mark is the partial-participation sampler's bitset over active
	// positions (rng.FloydInto), sized at setup to the fleet; nil when
	// every active client takes part.
	mark []uint64

	// Reusable per-round state (capacity n, sliced per round). The
	// admission rules compact ids in place into the admitted cohort.
	ids      []int
	updates  []Update
	measured []float64
	server   ServerCtx
	oneID    [1]int
	// now is the virtual clock (modeled seconds since the run started).
	now float64

	// stack is the aggregation-stack wrapper when the config declares one
	// (nil otherwise); aggregate reads each update's fate and the clip
	// bound through it.
	stack *stackedAlg

	// rec is the record of the server step under way. settleFlights adds
	// each flight's outcome to it as the flight ends, aggregate its weight
	// split and clip bound, the step its timing; commit completes and
	// appends it and starts the next one.
	rec metrics.Round

	// Adversary bookkeeping (adversary.go): anyAdv flags a run with at
	// least one corrupt client; cumWeights accumulates each client's
	// reported aggregation weight.
	anyAdv     bool
	cumWeights []float64

	// Async-policy state (setupAsync/asyncStep).
	pending     []flight
	buffer      []Update
	version     int
	lastAgg     float64
	bufMeasured float64

	// Fault-injection and recovery state (fault.go, checkpoint.go). plan
	// is nil for zero-fault configs, whose dispatches then resolve to the
	// fault-free outcome without a draw. dupFlags marks delivered-twice
	// updates per admitted position (nil without dispatch faults);
	// attempts tracks async per-client consecutive failed dispatch
	// attempts. All are sized at setup so fault-enabled steady-state
	// rounds still allocate nothing.
	plan     *faultPlan
	dupFlags []bool
	attempts []int
	// failStreak counts consecutive failed async dispatches.
	failStreak int

	// Checkpoint/restore state: startRound is the first round to execute
	// (non-zero after a restore); lastCkpt is the newest checkpoint, which
	// the next snapshot overwrites in place, and fp its header's
	// fingerprint, hashed on the first snapshot or restore (fpSet).
	// serverCrashed latches the one-shot servercrash fault; recovered and
	// rollbacks count replayed rounds and divergence rollbacks — they
	// live outside the checkpointed state so restores cannot erase them.
	startRound    int
	serverCrashed bool
	recovered     int
	rollbacks     int
	lastCkpt      blob
	lastCkptRound int
	fp            uint64
	fpSet         bool

	// interrupt, when non-nil, requests a graceful pause: the round loop
	// checks it at every round boundary and stops with a final checkpoint
	// instead of running to Rounds (ServeOptions.Interrupt).
	interrupt <-chan struct{}
}

// executor runs dispatched local rounds and hands their results back to
// the scheduler. The in-process implementation is the slot pool, which
// computes updates inside runRound (or, for an async one-client dispatch,
// queues them with runLater); the remote implementation (serve.go) sends
// dispatch frames to socket-connected workers inside runRound and defers
// the results, so round r+1's dispatch overlaps round r's aggregation.
// The contract: runRound fills updates with ring-backed buffers that MAY
// still be empty; no field of an update nor its measured time may be read
// until settle (whole round) or settleOne (one update) has returned for
// it, and every settled update must eventually be released.
type executor interface {
	runRound(cfg *Config, alg Algorithm, clients []client, ids []int, round int, global, prevGlobal []float64, updates []Update, measured []float64)
	// settle blocks until every update of the round has its results in
	// place (position j of measured matches updates[j]).
	settle(updates []Update, measured []float64)
	// settleOne blocks until one update's results are in place; measured
	// may be nil when the caller only needs the update itself.
	settleOne(u *Update, measured *float64)
	release(u *Update)
	close()
}

// participants collects the round's participating clients in ID order
// into the scheduler's reusable ids buffer, applying the partial-
// participation sampler, and errors when every client has been expelled.
// The sample is take distinct active positions drawn with Floyd's
// algorithm into ids, sorted, and mapped through activeIDs in place, so
// ids stays ascending.
func (s *scheduler) participants(t int) ([]int, error) {
	act := s.activeIDs
	if len(act) == 0 {
		return nil, fmt.Errorf("fl: all clients expelled by round %d", t)
	}
	take, sampled := s.cohort(len(act))
	if !sampled {
		// Callers compact ids in place, so they get a copy, never the list.
		return append(s.ids[:0], act...), nil
	}
	ids := s.ids[:take]
	s.partRNG.FloydInto(ids, s.mark, len(act))
	slices.Sort(ids)
	for j, p := range ids {
		ids[j] = act[p]
	}
	return ids, nil
}

// cohort returns how many of nActive active clients a round takes and
// whether they are sampled: ParticipationFraction of them rounded to
// nearest, at least one, when the fraction is in (0, 1) — the sampler
// then draws even if that rounds to everyone — else all, unsampled.
func (s *scheduler) cohort(nActive int) (take int, sampled bool) {
	if f := s.cfg.ParticipationFraction; f > 0 && f < 1 {
		return max(int(f*float64(nActive)+0.5), 1), true
	}
	return nActive, false
}

// rebuildActive refreshes activeIDs from the active flags, in place.
func (s *scheduler) rebuildActive() {
	ids := s.activeIDs[:0]
	for id, on := range s.active {
		if on {
			ids = append(ids, id)
		}
	}
	s.activeIDs = ids
}

// aggregate runs one server step over updates: snapshot w^t, apply the
// algorithm's aggregation rule, process expulsions, and report whether
// the model diverged (the paper's "×" outcome), which halts the run.
func (s *scheduler) aggregate(t int, updates []Update) (diverged bool) {
	copy(s.wPrev, s.params)
	s.server.Round = t
	s.server.W = s.params
	s.server.WPrev = s.wPrev
	s.server.expelled = s.server.expelled[:0]
	s.server.reported = s.server.reported[:0]
	s.alg.Aggregate(&s.server, updates)
	s.recordWeightMass(updates)
	if s.stack != nil {
		s.rec.ClipNorm = s.stack.lastClipNorm
		for i := range updates {
			s.settleFlights(s.stack.fate(i), 1)
		}
	} else {
		s.settleFlights(metrics.Aggregated, len(updates))
	}
	changed := false
	for _, id := range s.server.expelled {
		if s.active[id] {
			s.active[id] = false
			s.expelled[id] = t
			changed = true
		}
	}
	if changed {
		s.rebuildActive()
	}
	if !vecmath.AllFinite(s.params) {
		s.run.Diverged = true
		s.run.DivergedRound = t
		return true
	}
	return false
}

// settleFlights is the one writer of a record's outcomes: it counts n
// flights that ended with outcome o in the server step under way. Every
// dispatch the scheduler starts settles here exactly once, and every
// duplicate delivery once more as DupSuppressed (DESIGN.md §8).
func (s *scheduler) settleFlights(o metrics.Outcome, n int) {
	s.rec.Outcomes[o] += uint32(n)
}

// recordWeightMass splits the round's reported aggregation weights into
// honest and corrupt mass in the step's record and folds them into the
// per-client cumulative weights — the data behind the defense metrics
// (how much influence the rule actually granted attackers). Skipped
// entirely for adversary-free runs (the golden sync trace stays
// byte-identical) and when the aggregation rule reported nothing for this
// update set.
func (s *scheduler) recordWeightMass(updates []Update) {
	if !s.anyAdv || len(s.server.reported) != len(updates) {
		return
	}
	for i, u := range updates {
		w := s.server.reported[i]
		if u.Corrupt {
			s.rec.CorruptWeight += w
		} else {
			s.rec.HonestWeight += w
		}
		s.cumWeights[u.Client] += w
	}
}

// releaseDeltas returns the round's upload buffers (dense deltas and
// encoded payloads) to the slot-pool ring once the server has consumed
// them.
func (s *scheduler) releaseDeltas(updates []Update) {
	for i := range updates {
		s.exec.release(&updates[i])
	}
}

// uplink totals the round's client→server traffic: the encoded payload
// sizes when a codec is live, the dense 8d cost otherwise, twice for an
// update the uplink duplicated. ratio is dense-over-encoded, duplicates
// aside — the round's compression factor, 1 for dense transport.
func (s *scheduler) uplink(updates []Update) (bytes int64, ratio float64) {
	dense := 8 * int64(len(s.params))
	var enc, dups int64
	for i := range updates {
		b := dense
		if p := updates[i].Payload; p != nil {
			b = int64(p.Bytes())
		}
		enc += b
		if updates[i].dup {
			dups += b
		}
	}
	if enc == 0 {
		return 0, 0
	}
	return enc + dups, float64(dense*int64(len(updates))) / float64(enc)
}

// commit completes the step's record — the caller has set its timing —
// with the fields every policy fills the same way (index, loss, uplink,
// the algorithm's mean α, and the executor's failover counters since the
// last step, always zero in process), appends it and starts the next
// one. Evaluation follows the cadence and uses the algorithm's output
// model: Definition 2 calls z_t
// "the final model output after communication round t", and by Lemma 2
// the z sequence advances by the plain averaged mini-batch gradient
// (z^{t+1} = z^t − ηg·˜∆^t), cancelling the momentum in the w sequence.
// For every other algorithm FinalModel is w itself. The model is copied
// into the evaluation's snapshot and evaluated on the pool while the next
// round runs; joinEval fills the record in.
func (s *scheduler) commit(t int, trainLoss float64, upBytes int64, upRatio float64) {
	rec := &s.rec
	rec.Index, rec.TrainLoss, rec.MeanAlpha = t, trainLoss, s.alg.MeanAlpha()
	rec.UplinkBytes, rec.CompressionRatio = upBytes, upRatio
	if rx, ok := s.exec.(*remoteExec); ok {
		rec.ReassignedDispatches, rec.WorkerReconnects = rx.drainRecovery()
	}
	s.joinEval()
	if (t+1)%s.cfg.evalEvery() == 0 || t == s.cfg.Rounds-1 {
		copy(s.eval.w, s.alg.FinalModel(s.params))
		s.pool.start(s.eval, len(s.eval.shards), len(s.eval.shards))
		s.evalPending = true
	} else if n := len(s.run.Rounds); n > 0 {
		rec.Accuracy, rec.TopClassShare = s.run.Rounds[n-1].Accuracy, s.run.Rounds[n-1].TopClassShare
	}
	s.run.Append(*rec)
	s.rec = metrics.Round{}
}

// joinEval waits for the evaluation commit queued, if one is pending, and
// writes its accuracy and top-class share into the last record, the one
// it belongs to. Everything that reads or replaces the run's records —
// the next commit, a snapshot, a restore, a pause, the run's end — joins
// first.
func (s *scheduler) joinEval() {
	if !s.evalPending {
		return
	}
	s.pool.join(s.eval, 0)
	rec := &s.run.Rounds[len(s.run.Rounds)-1]
	rec.Accuracy, rec.TopClassShare = s.eval.result()
	s.evalPending = false
}

// slowestHonest returns the largest measured wall time among training
// participants (the paper measures the slowest client per round;
// fabricating adversaries — freeloaders, sybils — do no work).
func (s *scheduler) slowestHonest(ids []int, measured []float64) float64 {
	var slowest float64
	for j, id := range ids {
		if s.clients[id].fabricator() != nil {
			continue
		}
		if measured[j] > slowest {
			slowest = measured[j]
		}
	}
	return slowest
}

// runAll drives the configured policy's round loop. resumed marks a run
// restored from a checkpoint, whose async in-flight state was rebuilt by
// restore instead of setupAsync's initial dispatch wave.
func (s *scheduler) runAll(resumed bool) error {
	if s.cfg.Policy == PolicyAsync && !resumed {
		if err := s.setupAsync(); err != nil {
			return err
		}
	}
	return s.runRounds(s.step())
}

// step returns the configured policy's step function: one async server
// step, or one sync/deadline round.
func (s *scheduler) step() func(int) (bool, error) {
	if s.cfg.Policy == PolicyAsync {
		return s.asyncStep
	}
	return s.round
}

// wantCheckpoints reports whether the run snapshots state: periodically
// when CheckpointEvery is set, and at minimum once at the start when a
// servercrash fault needs something to restart from.
func (s *scheduler) wantCheckpoints() bool {
	return s.cfg.CheckpointEvery > 0 || (s.plan != nil && s.plan.crashRound >= 0)
}

// runRounds is the policy-independent round loop with the recovery
// machinery around one policy's step function: an initial checkpoint
// when checkpointing is armed, periodic checkpoints every CheckpointEvery
// rounds, the one-shot simulated server crash (restore the last
// checkpoint with its rng cursors and replay bit-identically), and the
// divergence guard (roll back to the last checkpoint keeping the live
// cursors — so the replay draws fresh batches — instead of halting,
// up to maxRollbacks times).
func (s *scheduler) runRounds(step func(int) (bool, error)) error {
	defer s.joinEval()
	if s.wantCheckpoints() && s.lastCkpt == nil {
		if err := s.snapshot(s.startRound); err != nil {
			return err
		}
	}
	for t := s.startRound; t < s.cfg.Rounds; {
		if s.interrupt != nil {
			select {
			case <-s.interrupt:
				return s.pause(t)
			default:
			}
		}
		if s.plan != nil && s.plan.crashRound == t && !s.serverCrashed {
			s.serverCrashed = true
			restored, err := s.restoreLast(true)
			if err != nil {
				return err
			}
			if rx, ok := s.exec.(*remoteExec); ok {
				// The restarted server re-dispatches from the restored
				// round; workers must be rewound to match (reset plus
				// full history replay, serve.go).
				rx.resyncWorkers()
			}
			s.recovered += t - restored
			t = restored
			continue
		}
		halt, err := step(t)
		if err != nil {
			return err
		}
		if halt {
			if s.lastCkpt != nil && s.rollbacks < maxRollbacks && s.canRollback() {
				restored, err := s.restoreLast(false)
				if err != nil {
					return err
				}
				s.rollbacks++
				s.run.Diverged = false
				s.run.DivergedRound = 0
				t = restored
				continue
			}
			s.run.HaltRound = t
			s.run.HaltReason = "diverged: non-finite parameters"
			break
		}
		t++
		if s.cfg.CheckpointEvery > 0 && t < s.cfg.Rounds && t%s.cfg.CheckpointEvery == 0 {
			if err := s.snapshot(t); err != nil {
				return err
			}
		}
	}
	s.run.RecoveredRounds = s.recovered
	s.run.Rollbacks = s.rollbacks
	return nil
}

// pause ends the run early at a round boundary after an interrupt
// (SIGINT on cmd/flserver): take a final checkpoint when checkpointing
// is armed — the blob ServeResume restarts from — mark the result, and
// flag the executor so its Bye tells workers the server is pausing, not
// done (they surface ErrServerPaused and re-attach to the restarted
// server).
func (s *scheduler) pause(t int) error {
	s.joinEval()
	if s.wantCheckpoints() && t != s.lastCkptRound {
		if err := s.snapshot(t); err != nil {
			return err
		}
	}
	s.run.HaltRound = t
	s.run.HaltReason = "interrupted"
	s.run.RecoveredRounds = s.recovered
	s.run.Rollbacks = s.rollbacks
	if rx, ok := s.exec.(*remoteExec); ok {
		rx.setPausing()
	}
	return nil
}

// canRollback reports whether the divergence rollback (restore keeping
// live rng cursors so the replay draws fresh batches) is available. The
// wire path cannot use it: worker rng streams live in other processes
// and the rollback deliberately does NOT rewind cursors, so there is no
// consistent worker state to rebuild — a diverged wire run halts with
// its checkpoint on disk instead.
func (s *scheduler) canRollback() bool {
	_, remote := s.exec.(*remoteExec)
	return !remote
}

// compactLost drops updates whose worker connection was lost with
// failover exhausted (serve.go marks their ring entries lost): the
// entries are released and settled as LostWithWorker, and the kept
// updates left-compacted in place alongside their ids and measured
// times. The survivors' order is unchanged, so the aggregation stays
// deterministic given which workers were lost.
func (s *scheduler) compactLost(include []int, updates []Update, measured []float64) (kept, lost int) {
	for j := range updates {
		if updates[j].ring != nil && updates[j].ring.lost {
			s.exec.release(&updates[j])
			lost++
			continue
		}
		if lost > 0 {
			include[kept] = include[j]
			updates[kept] = updates[j]
			measured[kept] = measured[j]
		}
		kept++
	}
	s.settleFlights(metrics.LostWithWorker, lost)
	return kept, lost
}

// admission is what a sync or deadline rule decided about one round's
// cohort: include lists the admitted clients in ascending ID order, dup[j]
// marks include[j] delivered twice (nil without dispatch faults), and dur
// is the round's modeled duration. The rules settle the retried, dropped
// and cut dispatches as they decide them.
type admission struct {
	include []int
	dup     []bool
	dur     float64
}

// admit appends client id to the admitted cohort, settling its second
// copy when the uplink duplicated it.
func (s *scheduler) admit(a *admission, id int, dup bool) {
	a.include = append(a.include, id)
	if a.dup != nil {
		a.dup = append(a.dup, dup)
	}
	if dup {
		s.settleFlights(metrics.DupSuppressed, 1)
	}
}

// admitSync is the synchronous rule: every delivered dispatch is
// admitted, and the server waits for the slowest honest device, the
// losers' full timeout chains included. Fabricating adversaries
// (freeloaders, sybils) do no work, so they count as instant. Both rules
// compact ids in place: position j is read before any write to it.
func (s *scheduler) admitSync(ids []int) admission {
	a := admission{include: ids[:0], dup: s.dupFlags[:0]}
	for _, id := range ids {
		out := s.resolveDispatch(id, s.now)
		s.settleFlights(metrics.Retried, out.retries)
		if s.clients[id].fabricator() == nil && out.rel > a.dur {
			a.dur = out.rel
		}
		if out.delivered {
			s.admit(&a, id, out.dup)
		} else {
			s.settleFlights(metrics.FaultDropped, 1)
		}
	}
	return a
}

// admitDeadline is the deadline rule: a delivered dispatch finishing
// within RoundDeadlineSec of the round start is admitted, a later one is
// cut as a straggler (the server will not wait; it retries next round).
// If nobody made it, the earliest straggler is admitted so the round
// aggregates at least one update. The round lasts until its slowest
// admitted finish, or the full deadline when anyone was cut or nothing
// was delivered.
func (s *scheduler) admitDeadline(ids []int) admission {
	a := admission{include: ids[:0], dup: s.dupFlags[:0]}
	earliest, earliestRel, earliestDup := -1, math.Inf(1), false
	cut := 0
	for _, id := range ids {
		out := s.resolveDispatch(id, s.now)
		s.settleFlights(metrics.Retried, out.retries)
		switch {
		case !out.delivered:
			s.settleFlights(metrics.FaultDropped, 1)
		case out.rel <= s.cfg.RoundDeadlineSec:
			s.admit(&a, id, out.dup)
			if out.rel > a.dur {
				a.dur = out.rel
			}
		default:
			cut++
			if out.rel < earliestRel {
				earliest, earliestRel, earliestDup = id, out.rel, out.dup
			}
		}
	}
	if len(a.include) == 0 && earliest >= 0 {
		s.admit(&a, earliest, earliestDup)
		cut--
		a.dur = earliestRel
	} else if cut > 0 || len(a.include) == 0 {
		a.dur = s.cfg.RoundDeadlineSec
	}
	s.settleFlights(metrics.Cut, cut)
	return a
}

// round executes one sync or deadline round; halt reports divergence.
// The policy's admission rule resolves every participant's dispatch
// first (fault draws and retry chains, in client-id order from the
// scheduler goroutine) and only the admitted clients train. Updates whose
// worker was lost with failover exhausted are dropped after training. A
// round is degraded when a dispatch fault is declared or a worker was
// lost, and it aggregated less than the quorum of its cohort (DESIGN §8).
func (s *scheduler) round(t int) (halt bool, err error) {
	ids, err := s.participants(t)
	if err != nil {
		return false, err
	}
	var a admission
	if s.cfg.Policy == PolicyDeadline {
		a = s.admitDeadline(ids)
	} else {
		a = s.admitSync(ids)
	}
	include := a.include
	updates := s.updates[:len(include)]
	measured := s.measured[:len(include)]
	lost := 0
	if len(include) > 0 {
		s.exec.runRound(&s.cfg, s.alg, s.clients, include, t, s.params, s.wPrev, updates, measured)
		s.exec.settle(updates, measured)
		for j, dup := range a.dup {
			updates[j].dup = dup
		}
		var kept int
		kept, lost = s.compactLost(include, updates, measured)
		include, updates, measured = include[:kept], updates[:kept], measured[:kept]
	}
	// A round that lost every update does not move the model.
	if len(include) > 0 {
		halt = s.aggregate(t, updates)
	}
	slowestMeasured := s.slowestHonest(include, measured)
	trainLoss := meanLoss(updates)
	upBytes, upRatio := s.uplink(updates)
	s.releaseDeltas(updates)
	if halt {
		return true, nil
	}
	faulty := s.plan.dispatches()
	rec := &s.rec
	rec.SlowestModeledSec, rec.SlowestMeasuredSec = a.dur, slowestMeasured
	rec.Degraded = (faulty || lost > 0) && s.degraded(len(include), len(ids))
	s.commit(t, trainLoss, upBytes, upRatio)
	s.now += a.dur
	return false, nil
}

// finishRel returns client id's modeled finish time relative to a round
// starting at now: wait for the device's next availability window, then
// compute. The wait is formed before adding the compute duration so an
// always-available device yields exactly finishDur (no now+dur−now
// round trip), which the sync golden test depends on.
func (s *scheduler) finishRel(id int, now float64) float64 {
	wait := s.env.Devices[id].Availability.NextAvailable(now) - now
	return wait + s.finishDur(id)
}

// flight is one client's in-progress local round under the async policy:
// its resolved attempt with its modeled completion time (fault.go), the
// server version it was dispatched at, and — for a delivered attempt —
// the update it will upload (computed from its dispatch version — see
// the scheduler doc comment). A failed attempt trains nothing, so its
// flight holds only its fate, finish time and attempt. Flights live in
// the scheduler's fixed pending table; live distinguishes in-flight
// entries from consumed ones. deferred marks a flight the run's last step
// scheduled (redispatch) whose round has not trained yet.
type flight struct {
	update   Update
	measured float64
	version  int
	live     bool
	deferred bool
	asyncOutcome
}

// dispatch starts a local round for the given clients at virtual time at.
// It resolves every client's attempt first, as admitSync does, and trains
// only the delivered ones: a crashed, dropped or timed-out attempt
// touches no client state, costs no ring entry and, on the wire, sends no
// Dispatch frame. ids is compacted in place into the delivered clients.
// A delivered update is computed from the state of this server version
// (execute-at-dispatch semantics) and parked in the pending table until
// its modeled finish event fires. The upload delta is a ring buffer owned
// by the flight until the server consumes or discards it. Under remote
// execution the update's results are still in flight when dispatch
// returns — asyncStep settles each flight before reading it — which is
// what overlaps worker compute with the server's aggregation and
// evaluation of earlier rounds. later marks a one-client dispatch from
// asyncStep's arrival loop, which the in-process pool queues
// (slotPool.runLater): asyncStep joins every such round before the state
// it reads moves.
func (s *scheduler) dispatch(ids []int, at float64, later bool) {
	delivered := ids[:0]
	for _, id := range ids {
		out := s.resolveAsyncDispatch(id, at)
		s.pending[id] = flight{version: s.version, live: true, asyncOutcome: out}
		if !out.failed {
			delivered = append(delivered, id)
		}
	}
	if len(delivered) == 0 {
		return
	}
	updates := s.updates[:len(delivered)]
	measured := s.measured[:len(delivered)]
	if later && s.exec == executor(s.pool) {
		s.pool.runLater(&s.cfg, s.alg, s.clients, delivered, s.version, s.params, s.wPrev, updates, measured)
	} else {
		s.exec.runRound(&s.cfg, s.alg, s.clients, delivered, s.version, s.params, s.wPrev, updates, measured)
	}
	for j, id := range delivered {
		s.pending[id].update, s.pending[id].measured = updates[j], measured[j]
	}
}

// setupAsync initializes the async state and dispatches the first wave.
func (s *scheduler) setupAsync() error {
	s.pending = make([]flight, len(s.clients))
	s.buffer = make([]Update, 0, s.cfg.asyncBuffer())
	ids, err := s.participants(0)
	if err != nil {
		return err
	}
	s.dispatch(ids, 0, false)
	return nil
}

// asyncStep drains arrivals until the buffer triggers one server step;
// halt reports divergence. The one-client rounds the arrivals dispatched
// may still be training on the pool's slots: they are joined, and their
// results settled into the pending table, before anything reads or moves
// the state they train from — the aggregate, or on an error the run's
// end. The trigger's re-dispatch after the aggregate is joined at once,
// so only the step's evaluation is in flight when it returns. The run's
// last step starts no round that cannot arrive within it (redispatch).
func (s *scheduler) asyncStep(t int) (halt bool, err error) {
	trigger, err := s.arrivals(t)
	s.settleLater()
	if err != nil {
		return false, err
	}

	var staleSum, staleMax int
	for _, u := range s.buffer {
		staleSum += u.Staleness
		if u.Staleness > staleMax {
			staleMax = u.Staleness
		}
	}

	halt = s.aggregate(t, s.buffer)
	trainLoss := meanLoss(s.buffer)
	upBytes, upRatio := s.uplink(s.buffer)
	s.releaseDeltas(s.buffer)
	if halt {
		return true, nil
	}
	s.version++
	if trigger >= 0 && s.active[trigger] && t < s.cfg.Rounds-1 {
		s.oneID[0] = trigger
		s.dispatch(s.oneID[:1], s.now, false)
	}
	// The trigger trained on the new model, after the join, so the record,
	// the snapshot that may follow and the next step's arrivals find no
	// client round in flight. The record's algorithm fields (MeanAlpha,
	// the clip bound) are written only by Setup and Aggregate.
	if t == s.cfg.Rounds-1 {
		// The flights still pending after the last step are abandoned; the
		// ones it scheduled never started, and settle nowhere.
		for i := range s.pending {
			if f := &s.pending[i]; f.live && !f.deferred {
				s.settleFlights(metrics.Abandoned, 1)
			}
		}
	}
	rec := &s.rec
	rec.SlowestModeledSec, rec.SlowestMeasuredSec = s.now-s.lastAgg, s.bufMeasured
	rec.MeanStaleness, rec.MaxStaleness = float64(staleSum)/float64(len(s.buffer)), staleMax
	s.commit(t, trainLoss, upBytes, upRatio)
	s.lastAgg = s.now
	s.buffer = s.buffer[:0]
	s.bufMeasured = 0
	return false, nil
}

// arrivals drains arrivals in virtual-time order (ties broken by client
// ID) into the buffer until it holds AsyncBuffer updates, and returns the
// client whose arrival filled it. Every other delivered arrival, and
// every failed dispatch, is re-dispatched at once (redispatch); a failed
// flight trained nothing, so it carries no update to release.
func (s *scheduler) arrivals(t int) (trigger int, err error) {
	bufK := s.cfg.asyncBuffer()
	for {
		id := -1
		for i := range s.pending {
			if s.pending[i].live && (id == -1 || s.pending[i].finish < s.pending[id].finish) {
				id = i
			}
		}
		if id == -1 {
			return -1, fmt.Errorf("fl: no client updates in flight at async step %d (all clients expelled)", t)
		}
		f := &s.pending[id]
		f.live = false
		s.now = f.finish
		if f.deferred && !f.failed {
			s.oneID[0] = id
			s.exec.runRound(&s.cfg, s.alg, s.clients, s.oneID[:1], f.version, s.params, s.wPrev, s.updates[:1], s.measured[:1])
			f.update, f.measured, f.deferred = s.updates[0], s.measured[0], false
		}
		// Results may arrive after dispatch — a wire reply, or a round
		// queued on the pool: block here, at the modeled finish event,
		// until they have landed. A failed flight has none to wait for.
		s.exec.settleOne(&f.update, &f.measured)
		if f.update.ring != nil && f.update.ring.lost {
			// A worker died with this dispatch in flight and nobody could
			// adopt it. The async pipeline cannot drop it (the buffer
			// trigger accounting would diverge from the modeled clock), so
			// this is fatal — sync and deadline runs degrade instead.
			s.exec.release(&f.update)
			s.settleFlights(metrics.LostWithWorker, 1)
			return -1, fmt.Errorf("fl: worker lost with client %d in flight (the async policy cannot drop in-flight updates; use sync or deadline for degraded operation)", id)
		}
		if !s.active[id] {
			// Expelled while in flight: upload discarded, ring entry recycled.
			s.exec.release(&f.update)
			s.settleFlights(metrics.ExpelledInFlight, 1)
			continue
		}
		if f.failed {
			// Crash, uplink loss, or timeout: nothing was trained, and the
			// client is re-dispatched after its deterministic backoff
			// (training against the then-current model), or rejoins fresh
			// once its retry budget is exhausted.
			s.failStreak++
			if s.failStreak > (faultRetries+2)*max(64, 8*len(s.clients)) {
				return -1, fmt.Errorf("fl: faults starved the async buffer at step %d (%d consecutive failed dispatches)", t, s.failStreak)
			}
			attempt := f.attempt
			if attempt < faultRetries {
				s.attempts[id] = attempt + 1
				s.settleFlights(metrics.Retried, 1)
				s.redispatch(t, id, s.now+s.plan.backoff(attempt, id))
			} else {
				s.attempts[id] = 0
				s.settleFlights(metrics.FaultDropped, 1)
				s.redispatch(t, id, s.now)
			}
			continue
		}
		s.failStreak = 0
		if s.attempts != nil {
			s.attempts[id] = 0
		}
		if f.dup {
			// Duplicated delivery: the server is idempotent — count it,
			// charge its bytes, aggregate the update once.
			s.settleFlights(metrics.DupSuppressed, 1)
			f.update.dup = true
		}
		f.update.Staleness = s.version - f.version
		s.buffer = append(s.buffer, f.update)
		if f.measured > s.bufMeasured {
			s.bufMeasured = f.measured
		}
		if len(s.buffer) == bufK {
			return id, nil
		}
		s.redispatch(t, id, s.now)
	}
}

// redispatch starts client id's next local round from the arrival loop of
// step t, at virtual time at. The run's last step only resolves the
// attempt, keeping the modeled clock and the fault draws: arrivals trains
// a delivered round if it arrives within the step, from the same model
// and version, and nothing trains it if the buffer fills first.
func (s *scheduler) redispatch(t, id int, at float64) {
	if t < s.cfg.Rounds-1 {
		s.oneID[0] = id
		s.dispatch(s.oneID[:1], at, true)
		return
	}
	s.pending[id] = flight{version: s.version, live: true, deferred: true, asyncOutcome: s.resolveAsyncDispatch(id, at)}
}

// settleLater joins every one-client round the arrival loop queued on
// the pool and copies its train loss and measured time into its flight.
// A flight that already arrived was settled then.
func (s *scheduler) settleLater() {
	for id := range s.pending {
		if f := &s.pending[id]; f.live {
			s.pool.settleOne(&f.update, &f.measured)
		}
	}
}

// finishDur returns client id's modeled compute duration. Freeloaders
// claim the same duration as honest work: they masquerade as honest
// clients (Section IV-A), so their uploads arrive on an honest-looking
// schedule — replying instantly would both unmask them and let them
// flood the async buffer at a frozen virtual clock. (Their real measured
// time stays near zero, and the sync policy's slowest-client metrics
// exclude them as before.)
func (s *scheduler) finishDur(id int) float64 {
	return s.env.Devices[id].Seconds(s.baseRound)
}
