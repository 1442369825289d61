package fl

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// Result is the outcome of one federated training run.
type Result struct {
	// Run is the per-round metric history.
	Run *metrics.Run
	// FinalParams is the algorithm's final output model (z_T for TACO).
	FinalParams []float64
	// Expelled maps expelled client IDs to the round of expulsion.
	Expelled map[int]int
	// CumWeights sums each client's reported aggregation weight across
	// rounds (nil when the run declared no adversaries). Defense metrics
	// derive weight-suppression detection from it: a defended corrupt
	// client accumulates far less mass than the uniform share.
	CumWeights []float64
	// Severs counts the worker connections a wire run severed, by cause
	// (all zero in process).
	Severs [NumSeverCauses]int
	// Resumed and Replayed split the worker reconnects the round records
	// count by how the server re-admitted the worker: resumed from the
	// state it kept, or reset and rebuilt by a history replay (DESIGN.md
	// §12).
	Resumed, Replayed int
}

// client is the engine's per-client identity state: the data shard, the
// client's deterministic sampling stream, and its last reported loss.
// Training resources (engine, parameter buffers) live in the slot pool
// (pool.go), so a client costs O(1) model-sized memory when idle. adv is
// the compiled corruption state (adversary.go), nil for honest clients.
// Clients live in one flat slice indexed by id (newFleet); sampler points
// into the fleet's sampler slab.
type client struct {
	id       int
	data     *dataset.Dataset
	sampler  *dataset.Sampler
	lastLoss float64
	adv      *advClient
}

// fleet is the per-client state a run derives from its seed: the client
// records, the init and participation streams, the compressor with its
// quantization streams, and the fault plan with its fault streams. Every
// per-client structure is one slab indexed by client id, so building a
// fleet takes the same number of allocations at any size.
type fleet struct {
	clients []client
	initRNG rng.RNG
	partRNG rng.RNG
	comp    *compressor // nil without a codec
	plan    *faultPlan  // nil without faults, and always on a worker
}

// newFleet is the one place a fleet's streams are derived, and its order
// is the determinism contract every wire worker replays: init, every
// client's sampler, participation, the adversary streams, every
// quantization stream, the fault streams. Each family derives after
// every earlier one, so a config without adversaries, a codec or faults
// draws nothing for them and the streams before stay bit-identical. A
// worker (server false) stops after the quantization streams: the
// adversary and fault streams are the server's, and a wire run declares
// no adversaries (validateWire), so the streams it keeps equal their
// in-process twins. baseRound prices the fault plan's backoff.
func newFleet(cfg *Config, shards []*dataset.Dataset, baseRound float64, server bool) (*fleet, error) {
	n := len(shards)
	f := &fleet{clients: make([]client, n)}
	root := rng.New(cfg.Seed)
	root.DeriveInto(&f.initRNG, "init", 0)
	samplers := dataset.NewSamplers(shards, root.DeriveN("sampler", n))
	for i := range f.clients {
		f.clients[i] = client{id: i, data: shards[i], sampler: &samplers[i]}
	}
	root.DeriveInto(&f.partRNG, "participation", 0)
	if server {
		if err := setupAdversaries(cfg, f.clients, root); err != nil {
			return nil, err
		}
	}
	if cfg.Compress.Kind != compress.KindNone {
		codec, err := cfg.Compress.Codec()
		if err != nil {
			return nil, fmt.Errorf("fl: %w", err)
		}
		f.comp = &compressor{codec: codec, streams: root.DeriveN("compress", n)}
		if cfg.isF32() {
			f.comp.resid32 = make([][]float32, n)
		} else {
			f.comp.resid = make([][]float64, n)
		}
	}
	if server {
		f.plan = newFaultPlan(cfg, n, baseRound, root)
	}
	return f, nil
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

// shardSizes returns each client's sample count, rejecting an empty
// shard.
func shardSizes(shards []*dataset.Dataset) ([]int, error) {
	sizes := make([]int, len(shards))
	for i, s := range shards {
		if sizes[i] = s.Len(); sizes[i] == 0 {
			return nil, fmt.Errorf("fl: client %d has no data", i)
		}
	}
	return sizes, nil
}

// Run trains net with the given algorithm over the client shards and
// evaluates on test, returning the full metric history. The run is
// deterministic for a fixed Config.Seed at any parallelism level under
// every aggregation policy (DESIGN.md §4).
func Run(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset) (*Result, error) {
	s, err := newScheduler(cfg, alg, net, shards, test)
	if err != nil {
		return nil, err
	}
	defer s.exec.close()

	if err := s.runAll(false); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// Resume rebuilds a run from a checkpoint produced by Config.OnCheckpoint
// (or an external capture of one) and continues it to completion. The
// config, model architecture, algorithm, and client shards must match the
// checkpointed run — a fingerprint in the header rejects mismatches — and
// the resumed run's remaining rounds replay bit-identically to the
// uninterrupted original: same batches, same fault outcomes, same final
// weights.
func Resume(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset, checkpoint []byte) (*Result, error) {
	s, err := newScheduler(cfg, alg, net, shards, test)
	if err != nil {
		return nil, err
	}
	defer s.exec.close()

	if err := s.restore(checkpoint, true); err != nil {
		return nil, err
	}
	if err := s.runAll(true); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// result packages the scheduler's final state.
func (s *scheduler) result() *Result {
	res := &Result{
		Run:         s.run,
		FinalParams: vecmath.Clone(s.alg.FinalModel(s.params)),
		Expelled:    s.expelled,
		CumWeights:  s.cumWeights,
	}
	if rx, ok := s.exec.(*remoteExec); ok {
		rx.mu.Lock()
		res.Severs = rx.severs
		res.Resumed, res.Replayed = rx.readmits[0], rx.readmits[1]
		rx.mu.Unlock()
	}
	return res
}

// newScheduler validates the configuration and builds the run state: the
// client identities, the slot pool, and the scheduler's reusable
// per-round buffers (sized once here so steady-state rounds allocate
// nothing; see the alloc regression tests).
func newScheduler(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset) (*scheduler, error) {
	return newSchedulerExec(cfg, alg, net, shards, test, false)
}

// newSchedulerExec is newScheduler with the execution substrate made
// explicit: remote builds a ring-only pool (no slots, no training
// goroutines — clients train in worker processes) and leaves s.exec for
// the caller to swap to the remote executor. Every rng derivation
// happens identically in both modes — newFleet owns the derivation
// ORDER, the determinism contract workers replay through the same
// constructor (worker.go) — so a wire run's fault plan, participation
// draws, and quantization streams are bit-identical to the in-process
// run's.
func newSchedulerExec(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset, remote bool) (*scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(shards)
	if n == 0 {
		return nil, fmt.Errorf("fl: no client shards")
	}
	dataSizes, err := shardSizes(shards)
	if err != nil {
		return nil, err
	}
	if len(cfg.Devices) > 0 && len(cfg.Devices) != n {
		return nil, fmt.Errorf("fl: %d device profiles for %d clients", len(cfg.Devices), n)
	}

	env := &Env{
		Net:        net,
		NumClients: n,
		NumParams:  net.NumParams(),
		DataSizes:  dataSizes,
		Devices:    cfg.devices(n),
		Cfg:        cfg,
	}
	// Compose the robust-aggregation stack and server optimizer around
	// the algorithm (stack.go); a zero-valued AggStack/ServerOpt returns
	// alg unchanged, keeping the unstacked path untouched.
	alg, err = wrapStack(alg, &cfg)
	if err != nil {
		return nil, err
	}
	alg.Setup(env)

	baseRound := simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, alg.Costs())
	f, err := newFleet(&cfg, shards, baseRound, true)
	if err != nil {
		return nil, err
	}
	params := net.InitParams(&f.initRNG)

	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	var pool *slotPool
	if remote {
		pool = newRingPool(env.NumParams)
	} else {
		pool = newSlotPool(net, cfg, min(cfg.parallelism(), n), n, cfg.Policy == PolicyAsync)
	}
	pool.comp = f.comp

	s := &scheduler{
		cfg:       cfg,
		alg:       alg,
		clients:   f.clients,
		env:       env,
		pool:      pool,
		params:    params,
		wPrev:     vecmath.Clone(params),
		active:    active,
		expelled:  make(map[int]int),
		run:       &metrics.Run{Algorithm: alg.Name(), Dataset: test.Name},
		eval:      newEvalTask(net, test, pool.evalWidth()),
		baseRound: baseRound,
		partRNG:   &f.partRNG,
		plan:      f.plan,
		ids:       make([]int, 0, n),
	}
	s.exec = pool
	s.activeIDs = make([]int, 0, n)
	s.rebuildActive()
	// No dispatch is larger than a full cohort: a round trains a subset of
	// its participants, and an async step re-dispatches one client at a
	// time.
	take, sampled := s.cohort(n)
	s.updates = make([]Update, take)
	s.measured = make([]float64, take)
	if sampled {
		// The active set only shrinks from n, and a restore refills it to at
		// most n, so this bound holds for the whole run.
		s.mark = make([]uint64, (n+63)/64)
	}
	s.stack, _ = alg.(*stackedAlg)
	if s.plan.dispatches() {
		s.dupFlags = make([]bool, 0, n)
		if cfg.Policy == PolicyAsync {
			s.attempts = make([]int, n)
		}
	}
	for i := range s.clients {
		if s.clients[i].corrupt() {
			s.anyAdv = true
			break
		}
	}
	if s.anyAdv {
		s.cumWeights = make([]float64, n)
	}
	s.run.Rounds = make([]metrics.Round, 0, cfg.Rounds)
	s.server = ServerCtx{Env: env, Active: active}
	return s, nil
}

// slot bundles the training resources one in-flight local round needs: an
// execution engine (activation/gradient arenas sized for the batch), the
// w0/w/grad/scratch parameter buffers and the mini-batch staging buffers.
// Slots carry no client identity — every buffer is fully overwritten by
// each local round, so which slot serves which client is invisible in the
// results (the P=1-vs-P=8 bit-identity tests pin this).
type slot struct {
	eng                  *nn.Engine[float64] // float64 engine; nil under DType "f32"
	w0, w, grad, scratch []float64
	batchX               []float64
	batchY               []int
	// The float32 compute path (Config.DType "f32", DESIGN.md §10): the
	// fp32 engine and twins replace the fp64 ones in the hot loop, and
	// w0/w/grad/scratch stay the float64 views the hooks read.
	eng32    *nn.Engine[float32]
	w32      []float32
	grad32   []float32
	corr32   []float32 // narrowed fused-correction vector
	batchX32 []float32
	at32     []float32 // GradientAt's output; allocated on first use
	// ctx is the slot's StepCtx over its own buffers, reused: the interface
	// call to GradAdjust would otherwise force a fresh one to escape.
	ctx StepCtx
}

// newSlot allocates one slot's engine and buffers.
func newSlot(net *nn.Network, cfg Config) *slot {
	d, inSize, batch := net.NumParams(), net.InShape().Size(), cfg.BatchSize
	sl := &slot{
		w0:      make([]float64, d),
		w:       make([]float64, d),
		grad:    make([]float64, d),
		scratch: make([]float64, d),
		batchX:  make([]float64, batch*inSize),
		batchY:  make([]int, batch),
	}
	if cfg.isF32() {
		sl.eng32 = nn.NewEngine32(net, batch)
		sl.w32 = make([]float32, d)
		sl.grad32 = make([]float32, d)
		sl.corr32 = make([]float32, d)
		sl.batchX32 = make([]float32, batch*inSize)
	} else {
		sl.eng = nn.NewEngine(net, batch)
	}
	sl.ctx = StepCtx{W: sl.w, W0: sl.w0, Grad: sl.grad, Scratch: sl.scratch, sl: sl}
	return sl
}

// load starts the trajectory at w0 (narrowed into w32 under fp32).
func (sl *slot) load() {
	if sl.eng32 == nil {
		copy(sl.w, sl.w0)
		return
	}
	vecmath.Narrow(sl.w32, sl.w0)
}

// gradient evaluates the staged batch at the current weights into grad,
// under fp32 on w32/grad32 and widened into w and grad for the hooks.
func (sl *slot) gradient() float64 {
	if sl.eng32 == nil {
		return sl.eng.Gradient(sl.w, sl.batchX, sl.batchY, sl.grad)
	}
	vecmath.Narrow(sl.batchX32, sl.batchX)
	loss := sl.eng32.Gradient(sl.w32, sl.batchX32, sl.batchY, sl.grad32)
	vecmath.Widen(sl.w, sl.w32)
	vecmath.Widen(sl.grad, sl.grad32)
	return loss
}

// gradientAt is StepCtx.GradientAt. Under fp32 w is staged in corr32,
// which step writes only after GradAdjust returns.
func (sl *slot) gradientAt(w, grad []float64) float64 {
	if sl.eng32 == nil {
		return sl.eng.Gradient(w, sl.batchX, sl.batchY, grad)
	}
	if sl.at32 == nil {
		sl.at32 = make([]float32, len(sl.w32))
	}
	vecmath.Narrow(sl.corr32, w)
	loss := sl.eng32.Gradient(sl.corr32, sl.batchX32, sl.batchY, sl.at32)
	vecmath.Widen(grad, sl.at32)
	return loss
}

// step applies w ← w − ηl·g, fused with a registered correction, and
// consumes the registration. Under fp32 the fused step reads the raw
// grad32 (FuseCorrection's contract) and the plain one re-narrows grad,
// which the hook may have rewritten in place.
func (sl *slot) step(lr float64, ctx *StepCtx) {
	switch {
	case sl.eng32 == nil && ctx.fuseVec != nil:
		vecmath.AXPYPY(-lr, sl.grad, -lr*ctx.fuseCoeff, ctx.fuseVec, sl.w)
	case sl.eng32 == nil:
		vecmath.AXPY(-lr, sl.grad, sl.w)
	case ctx.fuseVec != nil:
		vecmath.Narrow(sl.corr32, ctx.fuseVec)
		vecmath.AXPYPY(-float32(lr), sl.grad32, -float32(lr*ctx.fuseCoeff), sl.corr32, sl.w32)
	default:
		vecmath.Narrow(sl.grad32, sl.grad)
		vecmath.AXPY(-float32(lr), sl.grad32, sl.w32)
	}
	ctx.fuseVec = nil
}

// delta writes Δ = w0 − w_K; under fp32 widen(narrow(w0) − w32), exactly
// the trajectory the client trained (grad32 is free after the loop).
func (sl *slot) delta(delta []float64) {
	if sl.eng32 == nil {
		vecmath.Sub(delta, sl.w0, sl.w)
		return
	}
	vecmath.Narrow(sl.grad32, sl.w0)
	vecmath.Sub(sl.grad32, sl.grad32, sl.w32)
	vecmath.Widen(delta, sl.grad32)
}

// localUpdate runs the K-step local loop of Eq. (4) with the algorithm's
// corrections applied, producing Δ_i = w_{i,0} − w_{i,K} (Eq. (5)) in the
// caller-provided delta buffer. All model-sized scratch comes from the
// slot, whose methods carry the precision (DESIGN.md §5, §10); every hook
// sees float64. smp is the mini-batch source — the client's clean
// sampler, or its corrupted-shard sampler under a data-level attack.
func localUpdate(cfg *Config, alg Algorithm, c *client, sl *slot, delta []float64, round int, global []float64, smp *dataset.Sampler) {
	alg.LocalInit(c.id, round, global, sl.w0)
	alg.BeginLocal(c.id, round, sl.w0)
	sl.load()
	ctx := &sl.ctx
	ctx.Client, ctx.Round = c.id, round
	var lossSum float64
	for k := 0; k < cfg.LocalSteps; k++ {
		smp.Batch(sl.batchX, sl.batchY)
		lossSum += sl.gradient()
		ctx.Step = k
		alg.GradAdjust(ctx)
		sl.step(cfg.LocalLR, ctx)
	}
	sl.delta(delta)
	alg.EndLocal(c.id, round, delta)
	c.lastLoss = lossSum / float64(cfg.LocalSteps)
}

// meanLoss averages the training participants' losses. Clients that did
// no training (fabricating adversaries: freeloaders, sybils) report NaN,
// which keeps an honest client whose true mean loss happens to be
// exactly 0 in the average.
func meanLoss(updates []Update) float64 {
	var sum float64
	cnt := 0
	for _, u := range updates {
		if math.IsNaN(u.TrainLoss) {
			continue
		}
		sum += u.TrainLoss
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// SortUpdatesByClient orders updates by client ID; aggregation code relies
// on this for reproducibility. The engine produces them ordered already;
// the helper exists for tests and external callers.
func SortUpdatesByClient(updates []Update) {
	sort.Slice(updates, func(i, j int) bool { return updates[i].Client < updates[j].Client })
}
