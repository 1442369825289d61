package fl

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Run checkpointing (DESIGN.md §8). A checkpoint is the complete state
// needed to resume a run bit-identically: the model and its previous
// snapshot, expulsion state, the full metric history, every rng stream
// cursor (participation, per-client samplers, adversary streams,
// quantization streams, fault streams), error-feedback residuals,
// the algorithm's cross-round state (StatefulAlgorithm), and — under the
// async policy — every in-flight update: its encoded payload when a codec
// is live (the dense delta is rebuilt from it on load), its delta
// otherwise. The header
// carries a fingerprint of the configuration, architecture, and
// algorithm so a checkpoint cannot silently resume a different run.
// Everything after the header is described once, by walk functions over a
// ckpt.Codec that save and restore depending on the codec's direction.
//
// Two consumers with different needs share the format:
//   - server-crash recovery and external Resume apply the saved rng
//     cursors, so the replayed rounds are bit-identical to the lost ones;
//   - the divergence guard rolls state back but *keeps* the live
//     cursors, so the replay draws fresh batches instead of marching
//     deterministically into the same blow-up.

// The magic names the format; a blob of any older format is rejected by
// the magic check rather than silently misparsed.
var runCkptMagic = [8]byte{'F', 'L', 'C', 'K', 'P', 'T', '1', '0'}

// StatefulAlgorithm is implemented by algorithms that carry cross-round
// state a checkpoint must capture — control variates (Scaffold), client
// momentum (STEM), server momentum (FedACG), or TACO's coefficients and
// correction state. Stateless algorithms (FedAvg, FedProx, FoolsGold)
// need no hooks: their runs resume bit-identically from the model alone.
type StatefulAlgorithm interface {
	Algorithm
	// SaveState serializes the algorithm's cross-round state.
	SaveState(w io.Writer) error
	// LoadState restores state written by SaveState into an algorithm
	// that has been Setup with the same Env.
	LoadState(r io.Reader) error
}

// fingerprint hashes everything a checkpoint must agree on with the
// scheduler restoring it: the configuration (minus the checkpoint
// callback), the architecture, the algorithm, and the fleet size. None of
// them changes after newSchedulerExec, so the hash is taken once per run:
// printing the configuration walks every device profile, which costs over
// a thousand allocations on a 200-client fleet.
func (s *scheduler) fingerprint() uint64 {
	if !s.fpSet {
		c := s.cfg
		c.OnCheckpoint = nil
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v|net=%x|alg=%s|d=%d|n=%d", c, s.env.Net.Fingerprint(), s.alg.Name(), len(s.params), len(s.clients))
		s.fp, s.fpSet = h.Sum64(), true
	}
	return s.fp
}

// blob is the retained checkpoint, written by appending: a snapshot
// encodes straight into it, reusing its capacity, so the scheduler holds
// one copy of the newest checkpoint and no encode scratch beside it.
type blob []byte

func (b *blob) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// snapshot serializes the scheduler's state as of the start of round t
// over the retained checkpoint, which in-run recovery restores, and hands
// it to the OnCheckpoint callback when one is set. A failed snapshot
// drops the retained blob, so what it half overwrote is never restored
// (every caller ends the run on the error anyway).
func (s *scheduler) snapshot(t int) error {
	s.joinEval()
	if len(s.buffer) != 0 {
		return fmt.Errorf("fl: checkpoint at round %d with %d buffered async updates (not a round boundary)", t, len(s.buffer))
	}
	s.lastCkpt = append(s.lastCkpt[:0], runCkptMagic[:]...)
	c := ckpt.Save(&s.lastCkpt)
	fp := s.fingerprint()
	c.U64(&fp)
	s.walk(c, &t, true)
	if err := c.Err(); err != nil {
		s.lastCkpt = nil
		return fmt.Errorf("fl: checkpoint: %w", err)
	}
	s.lastCkptRound = t
	if s.cfg.OnCheckpoint != nil {
		s.cfg.OnCheckpoint(t, s.lastCkpt)
	}
	return nil
}

// restoreLast restores the retained in-run checkpoint and returns the
// round it resumes at. applyRNG selects between bit-identical replay
// (server-crash recovery) and fresh draws (divergence rollback).
func (s *scheduler) restoreLast(applyRNG bool) (int, error) {
	if s.lastCkpt == nil {
		return 0, fmt.Errorf("fl: no checkpoint to restore")
	}
	if err := s.restore(s.lastCkpt, applyRNG); err != nil {
		return 0, err
	}
	return s.startRound, nil
}

// restore deserializes a checkpoint into the scheduler. The scheduler
// must have been built from the same config/model/algorithm/shards
// (enforced by the header fingerprint). With applyRNG false the stream
// cursors in the checkpoint are consumed but not applied.
func (s *scheduler) restore(data []byte, applyRNG bool) error {
	s.joinEval()
	r := bytes.NewReader(data)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("fl: checkpoint read: %w", err)
	}
	if magic != runCkptMagic {
		return fmt.Errorf("fl: checkpoint: bad magic %q", magic[:])
	}
	c := ckpt.Load(r)
	var fp uint64
	c.U64(&fp)
	if err := c.Err(); err != nil {
		return fmt.Errorf("fl: checkpoint read: %w", err)
	}
	if want := s.fingerprint(); fp != want {
		return fmt.Errorf("fl: checkpoint fingerprint %x does not match this run %x (different config, model, or algorithm)", fp, want)
	}
	s.walk(c, &s.startRound, applyRNG)
	if err := c.Err(); err != nil {
		return fmt.Errorf("fl: checkpoint restore: %w", err)
	}
	s.rec = metrics.Round{}
	s.failStreak = 0
	return nil
}

// walk is the one description of everything after the header: it visits
// every field of the run's state once, and the codec's direction decides
// whether the walk saves or restores. A field is added here and nowhere
// else. round is the first round still to execute. applyRNG matters on
// restore only: false consumes the recorded stream cursors without
// applying them.
func (s *scheduler) walk(c *ckpt.Codec, round *int, applyRNG bool) {
	c.Section("header")
	c.Int(round)
	if *round < 0 || *round > s.cfg.Rounds {
		c.Failf("resume round %d outside [0,%d]", *round, s.cfg.Rounds)
	}
	c.F64(&s.now)
	c.Int(&s.version)
	c.F64(&s.lastAgg)
	c.Section("params")
	c.F64s(s.params)
	c.Section("wPrev")
	c.F64s(s.wPrev)

	// A client is expelled exactly when it is inactive, so one record per
	// client carries both tables. The active-id list is derived from the
	// flags, so it is rebuilt on load rather than stored.
	c.Section("expulsions")
	c.ExpectLen(len(s.active), "active flags")
	if c.Loading() {
		clear(s.expelled)
	}
	for id := range s.active {
		c.Bool(&s.active[id])
		if !s.active[id] {
			at := s.expelled[id]
			c.Int(&at)
			s.expelled[id] = at
		}
	}
	if c.Loading() {
		s.rebuildActive()
	}
	c.Section("cumulative weights")
	if c.Expect(s.cumWeights != nil, "cumulative-weight") {
		c.F64s(s.cumWeights)
	}
	c.Section("run history")
	walkRunHistory(c, s.run, s.cfg.Rounds)

	// rng cursors, in the derivation order of newFleet.
	c.Section("participation stream")
	c.Cursor(s.partRNG, applyRNG)
	c.Section("client samplers")
	for i := range s.clients {
		c.Cursor(s.clients[i].sampler.Stream(), applyRNG)
	}
	c.Section("adversary streams")
	for i := range s.clients {
		cl := &s.clients[i]
		if !c.Expect(cl.adv != nil, "adversary") {
			continue
		}
		c.Cursor(cl.adv.r, applyRNG)
		if c.Expect(cl.adv.sampler != nil, "data corruption") {
			c.Cursor(cl.adv.sampler.Stream(), applyRNG)
		}
	}
	c.Section("quantization streams")
	comp := s.pool.comp
	if c.Expect(comp != nil, "compression") {
		for i := range comp.streams {
			c.Cursor(&comp.streams[i], applyRNG)
		}
		// EF residuals are algorithm state, not stream cursors: restored
		// unconditionally so a rollback rewinds the error feedback too.
		// (DType is fingerprinted, so a blob can never be restored under
		// the other precision.)
		c.Section("EF residuals")
		if comp.resid32 != nil {
			c.Rows32(comp.resid32, len(s.params))
		} else {
			c.Rows(comp.resid, len(s.params))
		}
	}
	c.Section("fault streams")
	if c.Expect(s.plan != nil, "fault-plan") && c.Expect(s.plan.dispatches(), "fault streams") {
		for i := range s.plan.streams {
			c.Cursor(&s.plan.streams[i], applyRNG)
		}
	}

	c.Section("algorithm state")
	if sa, stateful := s.alg.(StatefulAlgorithm); c.Expect(stateful, "algorithm state") {
		c.Nested(sa.SaveState, sa.LoadState)
	}

	c.Section("async flights")
	if c.Expect(s.cfg.Policy == PolicyAsync, "async policy") {
		s.walkFlights(c)
	}

	// Wire-execution record, last: a marker for the execution mode (a wire
	// blob restored in-process would leave server-side sampler cursors
	// authoritative for state that actually lives in workers, and vice
	// versa — both are silently wrong, so cross-mode restores are
	// rejected), then the dispatch record a restarted server needs to
	// rebuild its workers.
	c.Section("execution mode")
	rx, isWire := s.exec.(*remoteExec)
	fromWire := isWire
	c.Bool(&fromWire)
	switch {
	case fromWire && !isWire:
		c.Failf("checkpoint was written by a wire run (fl.Serve); restore it with ServeResume")
	case !fromWire && isWire:
		c.Failf("checkpoint was written by an in-process run (fl.Run); restore it with Resume")
	case isWire:
		c.Section("wire state")
		rx.walkWireState(c)
	}
}

// walkFlights covers the async policy's in-flight table: every live
// flight with its update, and the per-client retry-attempt table. A
// failed attempt trained nothing (dispatch), so only its fate, finish and
// attempt are stored, and on load it gets no ring entry. With a codec
// live an update is stored as its encoded payload alone: the encode step
// (compress.EncodeEF/EncodeEF32, top-k's fused emit) leaves the delta
// equal to the payload's decode bit for bit, so the load decodes the
// payload into the flight's fresh ring entry instead of reading a dense
// copy. Without a codec the delta is stored.
func (s *scheduler) walkFlights(c *ckpt.Codec) {
	if c.Loading() {
		if s.pending == nil {
			s.pending = make([]flight, len(s.clients))
			s.buffer = make([]Update, 0, s.cfg.asyncBuffer())
		}
		s.buffer = s.buffer[:0]
		s.bufMeasured = 0
	}
	var wireBuf []byte
	for id := range s.pending {
		f := &s.pending[id]
		if c.Loading() {
			// Drop any current in-flight state; restored flights get
			// fresh ring entries below.
			*f = flight{}
		}
		c.Bool(&f.live)
		if !f.live {
			continue
		}
		c.Bool(&f.failed)
		c.F64(&f.finish)
		c.Int(&f.attempt)
		if f.failed {
			continue
		}
		c.Int(&f.version)
		c.F64(&f.measured)
		c.Bool(&f.dup)
		if c.Loading() {
			u := s.pool.getUpload()
			f.update = Update{Client: id, Delta: u.delta, NumSamples: s.clients[id].data.Len(), ring: u}
			if s.pool.comp != nil {
				f.update.Payload = &u.pay
			}
		}
		u := &f.update
		c.F64(&u.TrainLoss)
		c.Bool(&u.Corrupt)
		if !c.Expect(u.Payload != nil, "in-flight payload") {
			c.F64s(u.Delta)
			continue
		}
		// The payload travels in its wire encoding (wire.AppendPayload),
		// the one serializer compress.Payload has, as one length-prefixed
		// field that the decode must consume exactly.
		if !c.Loading() {
			wireBuf = wire.AppendPayload(wireBuf[:0], u.Payload)
		}
		c.Bytes(&wireBuf)
		if c.Loading() && c.Err() == nil {
			rest, err := wire.UnmarshalPayload(u.Payload, wireBuf)
			switch {
			case err != nil:
				c.Failf("client %d payload: %w", id, err)
			case len(rest) != 0:
				c.Failf("client %d payload: %d trailing bytes", id, len(rest))
			case u.Payload.Form != s.cfg.Compress.Kind || u.Payload.N != len(s.params):
				c.Failf("client %d payload is %q over %d coordinates, want %q over %d", id, u.Payload.Form, u.Payload.N, s.cfg.Compress.Kind, len(s.params))
			default:
				s.pool.comp.codec.Decode(u.Delta, u.Payload)
			}
		}
	}
	if c.Expect(s.attempts != nil, "retry-attempt table") {
		c.ExpectLen(len(s.attempts), "attempt entries")
		for i := range s.attempts {
			c.Int(&s.attempts[i])
		}
	}
}

// walkRunHistory covers the metric history accumulated so far, reusing
// the run's round slice on restore. The run-level recovery counters
// (RecoveredRounds, Rollbacks, Halt*) are process-local — they describe
// what happened to *this* execution, so restores must not erase them —
// and are therefore not part of the walk.
func walkRunHistory(c *ckpt.Codec, run *metrics.Run, maxRounds int) {
	c.Bool(&run.Diverged)
	c.Int(&run.DivergedRound)
	n := len(run.Rounds)
	c.Int(&n)
	if n < 0 || n > maxRounds {
		c.Failf("%d recorded rounds exceeds budget %d", n, maxRounds)
		return
	}
	if c.Loading() {
		run.Rounds = slices.Grow(run.Rounds[:0], n)[:n]
	}
	for i := range run.Rounds {
		walkRound(c, &run.Rounds[i])
	}
}

// walkRound covers one round record, field for field in struct order.
func walkRound(c *ckpt.Codec, rec *metrics.Round) {
	c.Int(&rec.Index)
	c.F64(&rec.Accuracy)
	c.F64(&rec.TopClassShare)
	c.F64(&rec.TrainLoss)
	c.F64(&rec.SlowestModeledSec)
	c.F64(&rec.SlowestMeasuredSec)
	c.F64(&rec.CumModeledSec)
	c.F64(&rec.CumMeasuredSec)
	c.F64(&rec.MeanAlpha)
	c.F64(&rec.MeanStaleness)
	c.Int(&rec.MaxStaleness)
	c.Bool(&rec.Degraded)
	c.U32s(rec.Outcomes[:])
	c.F64(&rec.ClipNorm)
	c.F64(&rec.HonestWeight)
	c.F64(&rec.CorruptWeight)
	up := uint64(rec.UplinkBytes)
	c.U64(&up)
	rec.UplinkBytes = int64(up)
	c.F64(&rec.CompressionRatio)
	c.Int(&rec.ReassignedDispatches)
	c.Int(&rec.WorkerReconnects)
}
