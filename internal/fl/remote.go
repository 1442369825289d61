package fl

import (
	"fmt"
	"hash/fnv"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/wire"
)

// WireSafe marks algorithms whose client-side hooks (LocalInit,
// BeginLocal, GradAdjust, EndLocal) are pure functions of the dispatched
// global model and the config — no state written by Aggregate is ever
// read on the client. Only such algorithms can run under fl.Serve, where
// clients live in other processes and the server's aggregation state is
// never shipped to them: a stateful algorithm (Scaffold's control
// variates, FedACG's momentum, TACO's α-weights) would silently train
// against stale state instead of failing loudly, so Serve rejects
// anything unmarked. The marker belongs on the raw algorithm; stack
// wrappers are checked through their inner algorithm. A WireSafe
// algorithm keeps no per-client state across rounds either, so a
// worker's whole state is its client samplers and its codec's streams and
// error-feedback residuals: what a worker keeps across a lost connection
// (keptState) and what a history replay rebuilds.
type WireSafe interface {
	// WireSafe is a marker; it is never called.
	WireSafe()
}

// validateWire rejects configurations the wire path cannot execute
// faithfully. Adversaries and freeloaders are out: their fabricators and
// injectors run on the dispatch path with server-held state (prevGlobal,
// the adversary streams) that workers do not have. Checkpointing — and the
// servercrash fault, which restores from a checkpoint — runs over the
// wire under the sync and deadline policies, where every dispatch
// settles inside its round and a snapshot therefore lands on a quiet
// boundary; under the async policy a snapshot would have to serialize
// in-flight deltas that may still be crossing the socket, so the
// combination is rejected. Scheduler-side faults (crash/drop/dup/slow)
// stay available everywhere — they are resolved from server-owned rng
// streams before dispatch, so workers never see them.
func validateWire(cfg *Config, alg Algorithm) error {
	if _, ok := alg.(WireSafe); !ok {
		return fmt.Errorf("fl: algorithm %s is not wire-safe (client hooks may read server aggregation state)", alg.Name())
	}
	if len(cfg.Adversaries) > 0 {
		return fmt.Errorf("fl: adversaries are not supported over the wire")
	}
	ckpt := cfg.CheckpointEvery > 0 || cfg.OnCheckpoint != nil
	for _, f := range cfg.Faults {
		if f.Kind == fault.KindServerCrash {
			ckpt = true
		}
	}
	if ckpt && cfg.Policy == PolicyAsync {
		return fmt.Errorf("fl: checkpointing over the wire requires the sync or deadline policy (async snapshots would serialize in-flight uploads)")
	}
	return nil
}

// silenceHeartbeats is the wire's silence budget: the server severs a
// connection, and a worker gives up on its server, after this many
// heartbeats without an inbound frame.
const silenceHeartbeats = 3

// serveFingerprint hashes everything that must agree between the server
// and a worker for their replayed rng derivations and local training to
// be bit-identical: the training config, the codec, the algorithm, and
// the data geometry — every client's sample count and labels, so a
// worker that split the data differently (another partition, φ or
// scale) is caught even when the config agrees. Workers send it in
// Hello; a mismatch is rejected before any training happens.
func serveFingerprint(cfg *Config, algName, dsName string, shards []*dataset.Dataset, numParams int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v2|%d|%d|%d|%x|%x|%d|%s|%v|%x|%d|%s|%x|%d|%s|%g|%d|%s|%s|%d|%d",
		cfg.Rounds, cfg.LocalSteps, cfg.BatchSize,
		cfg.LocalLR, cfg.GlobalLR, cfg.Seed, cfg.DType,
		cfg.WeightByData, cfg.ParticipationFraction,
		int(cfg.Policy), cfg.Policy.String(), cfg.RoundDeadlineSec, cfg.AsyncBuffer,
		cfg.Compress.Kind, cfg.Compress.TopKFrac, cfg.Compress.Chunk,
		algName, dsName, len(shards), numParams)
	var buf []byte
	for _, shard := range shards {
		buf = wire.AppendUvarint(buf[:0], uint64(shard.Len()))
		for _, y := range shard.Y {
			buf = wire.AppendUvarint(buf, uint64(y))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// Frame-body encodings for the flserver protocol (frame types in
// internal/wire). All integers are uvarints, all floats raw little-
// endian float64 bits.

// appendHello encodes a worker's Hello: fingerprint, worker index,
// worker count and the attach counter (0 on the first connection,
// incremented on every re-dial; the server does not read it), then, when
// the worker kept its state across a lost connection, the claim the
// server checks before it resumes the worker instead of replaying its
// history (DESIGN.md §12): the run token the state was trained under, an
// (id, count) pair for every client with trained dispatches, and the ids
// of the trained sub-batch whose Updates frame never went out.
func appendHello(dst []byte, fp uint64, index, workers, attach int, st *keptState) []byte {
	dst = wire.AppendU64(dst, fp)
	dst = wire.AppendUvarint(dst, uint64(index))
	dst = wire.AppendUvarint(dst, uint64(workers))
	dst = wire.AppendUvarint(dst, uint64(attach))
	if st == nil {
		return dst
	}
	dst = wire.AppendU64(dst, st.token)
	pairs := 0
	for _, c := range st.trained {
		if c != 0 {
			pairs++
		}
	}
	dst = wire.AppendUvarint(dst, uint64(pairs))
	for id, c := range st.trained {
		if c != 0 {
			dst = wire.AppendUvarint(dst, uint64(id))
			dst = wire.AppendUvarint(dst, uint64(c))
		}
	}
	dst = wire.AppendUvarint(dst, uint64(len(st.unsentIDs)))
	for _, id := range st.unsentIDs {
		dst = wire.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// resumeClaim is the decoded claim of a Hello (appendHello).
type resumeClaim struct {
	token  uint64
	ids    []int // clients with trained dispatches
	counts []int // counts[j] is ids[j]'s trained dispatches
	unsent []int
}

// parseHello decodes a Hello body; claim is nil when it carries none.
func parseHello(body []byte) (fp uint64, index, workers, attach int, claim *resumeClaim, err error) {
	d := wire.Dec{B: body}
	fp = d.U64()
	index = int(d.Uvarint())
	workers = int(d.Uvarint())
	attach = int(d.Uvarint())
	if d.Err == nil && d.Len() != 0 {
		claim = &resumeClaim{token: d.U64()}
		k := d.Count(wire.MaxElems, 2)
		claim.ids, claim.counts = make([]int, k), make([]int, k)
		for j := 0; j < k && d.Err == nil; j++ {
			claim.ids[j], claim.counts[j] = int(d.Uvarint()), int(d.Uvarint())
		}
		claim.unsent = make([]int, d.Count(wire.MaxElems, 1))
		for j := range claim.unsent {
			claim.unsent[j] = int(d.Uvarint())
		}
	}
	if d.Err == nil && d.Len() != 0 {
		d.Err = fmt.Errorf("fl: %d trailing bytes in hello", d.Len())
	}
	return fp, index, workers, attach, claim, d.Err
}

// appendDispatch encodes one dispatch batch: the round (the server
// version under the async policy), the client IDs to train, the global
// model snapshot they train from, and the server run's token, which a
// worker keeps with the state the batch trains.
func appendDispatch(dst []byte, round int, ids []int, global []float64, token uint64) []byte {
	dst = wire.AppendUvarint(dst, uint64(round))
	dst = wire.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = wire.AppendUvarint(dst, uint64(id))
	}
	dst = wire.AppendUvarint(dst, uint64(len(global)))
	dst = wire.AppendF64s(dst, global)
	return wire.AppendU64(dst, token)
}

// byePausing is the Bye body code for a server that is pausing the run
// (interrupted, intending a checkpointed restart) rather than completing
// it; workers surface it as ErrServerPaused. An empty Bye body means the
// run finished.
const byePausing byte = 1

// dispatchMsg is one decoded dispatch batch. The slices are owned by the
// message (workers process dispatches strictly in order, but decode them
// on the reader goroutine while training runs). adopt marks a replayed
// batch the worker trains and discards; restore marks a body-less worker
// reset, and resume a Resume frame, with resend its body (all ride the
// same in-order queue so a replay lands exactly where the server
// sequenced it).
type dispatchMsg struct {
	round   int
	ids     []int
	global  []float64
	token   uint64
	adopt   bool
	restore bool
	resume  bool
	resend  bool
}

// parseDispatch decodes a dispatch body.
func parseDispatch(body []byte) (*dispatchMsg, error) {
	d := wire.Dec{B: body}
	m := &dispatchMsg{round: int(d.Uvarint())}
	k := d.Count(wire.MaxElems, 1)
	m.ids = make([]int, k)
	for j := 0; j < k && d.Err == nil; j++ {
		m.ids[j] = int(d.Uvarint())
	}
	n := d.Count(wire.MaxElems, 8)
	m.global = make([]float64, n)
	d.F64s(m.global)
	m.token = d.U64()
	if d.Err == nil && d.Len() != 0 {
		d.Err = fmt.Errorf("fl: %d trailing bytes in dispatch", d.Len())
	}
	if d.Err != nil {
		return nil, d.Err
	}
	return m, nil
}

// parseResume decodes a Resume body: one byte, 1 when the worker is to
// resend its unsent Updates frame.
func parseResume(body []byte) (resend bool, err error) {
	if len(body) != 1 || body[0] > 1 {
		return false, fmt.Errorf("fl: resume body %x, want one byte 0 or 1", body)
	}
	return body[0] == 1, nil
}

// appendUpdateEntry encodes one completed client result inside an
// Updates frame: id, train loss, measured wall seconds, then the payload
// (the codec encoding when compression is live, the dense fallback
// otherwise — self-delimiting either way).
func appendUpdateEntry(dst []byte, u *Update, measured float64) []byte {
	dst = wire.AppendUvarint(dst, uint64(u.Client))
	dst = wire.AppendF64(dst, u.TrainLoss)
	dst = wire.AppendF64(dst, measured)
	if u.Payload != nil {
		return wire.AppendPayload(dst, u.Payload)
	}
	return wire.AppendDense(dst, u.Delta)
}
