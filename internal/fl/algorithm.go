package fl

import (
	"math"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// Env describes the fixed environment an algorithm trains in. It is handed
// to Setup once before round 0.
type Env struct {
	// Net is the shared model architecture.
	Net *nn.Network
	// NumClients is N (full participation).
	NumClients int
	// NumParams is the flat parameter-vector length.
	NumParams int
	// DataSizes is D_i per client.
	DataSizes []int
	// Devices is the resolved per-client device fleet (uniform when the
	// config left it empty), so algorithms can inspect the heterogeneity
	// regime they train under.
	Devices []simclock.DeviceProfile
	// Cfg is the engine configuration.
	Cfg Config
}

// StepCtx is the per-local-step context passed to GradAdjust. The hook may
// mutate Grad in place; every other field is read-only by convention.
type StepCtx struct {
	// Client is the client ID, Round the communication round, Step the
	// local step index k ∈ [K].
	Client, Round, Step int
	// W is the client's current local parameter vector w_{i,k}.
	W []float64
	// W0 is the round's local starting point w_{i,0}.
	W0 []float64
	// Grad is the mini-batch gradient g_{i,k}, to be adjusted in place.
	Grad []float64
	// Scratch is a NumParams-sized scratch vector owned by the client.
	Scratch []float64

	sl *slot // the training slot GradientAt evaluates on
	// fuseCoeff and fuseVec hold a correction registered by
	// FuseCorrection for the engine to fold into the SGD step.
	fuseCoeff float64
	fuseVec   []float64
}

// GradientAt evaluates this step's mini-batch at w into grad on the
// client's own engine, at its precision (Config.DType), and returns the
// loss; W and Grad are untouched. STEM pays one per step.
func (c *StepCtx) GradientAt(w, grad []float64) float64 { return c.sl.gradientAt(w, grad) }

// FuseCorrection registers the additive correction coeff·corr for this
// step: instead of the algorithm mutating Grad (one full pass over d) and
// the engine then applying the step (a second pass), the engine performs
// the corrected step w ← w − ηl·(g + coeff·corr) in a single fused pass
// (vecmath.AXPYPY). corr must stay valid until the step completes and is
// read-only; Grad keeps the raw mini-batch gradient, so algorithms that
// need the adjusted gradient materialized (STEM's momentum recursion)
// should keep mutating Grad instead. The registration is consumed by the
// step; call it again on the next step to keep the correction applied.
func (c *StepCtx) FuseCorrection(coeff float64, corr []float64) {
	c.fuseCoeff, c.fuseVec = coeff, corr
}

// Correction returns the fused correction registered for this step (nil
// vector when the algorithm mutated Grad directly instead). Diagnostic
// accessor for tests; the engine consumes the registration itself.
func (c *StepCtx) Correction() (coeff float64, corr []float64) {
	return c.fuseCoeff, c.fuseVec
}

// Update is one client's upload for a round: the accumulated local
// gradient Δ_i = w_{i,0} − w_{i,K} of Eq. (5).
type Update struct {
	// Client is the uploading client's ID.
	Client int
	// Delta is Δ_i (length NumParams). The engine owns the backing array;
	// algorithms must copy anything they keep across rounds.
	Delta []float64
	// NumSamples is D_i, for data-weighted aggregation.
	NumSamples int
	// TrainLoss is the client's mean mini-batch loss across the round.
	TrainLoss float64
	// Staleness counts the server versions that elapsed between the
	// client starting this local round and the server consuming the
	// update: 0 for the synchronous and deadline policies, ≥ 0 under
	// buffered asynchronous aggregation. Aggregation rules damp stale
	// updates via StalenessDamp.
	Staleness int
	// Corrupt marks an upload from a client designated adversarial by
	// the run's corruption specs (ground truth for defense metrics).
	// Aggregation rules must NOT read it — defenses only see the update
	// geometry.
	Corrupt bool
	// dup marks an upload the uplink delivered twice: the server bills
	// both copies (scheduler.uplink) and aggregates one.
	dup bool
	// Payload is the encoded on-the-wire form of the upload when the run
	// compresses updates (nil for dense transport). Delta always holds
	// the decoded dense view, so the two never disagree; rules that can
	// exploit sparse form should go through AddScaled/Norm,
	// which pick the O(k) kernels automatically. Like Delta, the backing
	// buffers belong to the engine's ring.
	Payload *compress.Payload
	// ring is the pool's buffer-ownership handle (pool.go).
	ring *upload
	// scan is a dense Delta's MaxAbs and rescaled square-sum as the
	// aggregation stack took them for its norm (updateNorms), which Eq. 7's
	// NormsCosines reads instead of scanning Delta again; scanned says it
	// is current. The stack clears it on an update it rescales.
	scan    vecmath.Scan
	scanned bool
}

// sparse reports whether the update travels as a top-k payload, whose
// kept (index, value) pairs the payload-aware views walk instead of Δ_i.
func (u *Update) sparse() bool { return u.Payload != nil && u.Payload.Sparse() }

// AddScaled accumulates alpha·Δ_i into dst. When the update carries a
// sparse payload the accumulation scatters the k kept coordinates
// (vecmath.ScatterAXPY) instead of walking all d, so aggregating a top-k
// round is O(n·k) server work.
func (u *Update) AddScaled(alpha float64, dst []float64) {
	if u.sparse() {
		vecmath.ScatterAXPY(alpha, u.Payload.Idx, u.Payload.Val, dst)
		return
	}
	vecmath.AXPY(alpha, u.Delta, dst)
}

// Norm returns ‖Δ_i‖ with overflow-safe accumulation (the upload is not
// under the server's control), over the sparse values when available —
// the dropped coordinates are exact zeros, so the sparse and dense norms
// agree.
func (u *Update) Norm() float64 {
	if u.sparse() {
		return vecmath.Norm2Safe(u.Payload.Val)
	}
	return vecmath.Norm2Safe(u.Delta)
}

// NormsCosines writes every update's Norm into norms (unless norms is nil)
// and its cosine similarity with y into cos, under the CosineSimilarity
// conventions: the geometry Eq. (7) and FoolsGold read. y's largest
// magnitude and rescaled square-sum are taken once. A dense update costs
// one pass over Δ_i for both values (vecmath.CosineRef), or only the dot
// product's chain when the stack's scan of it is current; two dense
// updates share each loop with their add chains interleaved, and a top-k
// upload costs O(k) (sparseCosine).
func NormsCosines(updates []Update, y, norms, cos []float64) {
	ref := vecmath.NewCosineRef(y)
	my, ny := ref.Max(), ref.ScaledNorm()
	set := func(i int, n, c float64) {
		if norms != nil {
			norms[i] = n
		}
		cos[i] = c
	}
	forDensePairs(updates, func(i int) {
		u := &updates[i]
		switch {
		case u.scanned:
			n, c := ref.Cosine(u.Delta, u.scan)
			set(i, n, c)
		case !u.sparse():
			n, c := ref.NormCosine(u.Delta)
			set(i, n, c)
		default:
			var c float64
			if my != 0 {
				c = u.sparseCosine(y, my, ny)
			}
			set(i, u.Norm(), c)
		}
	}, func(i, j int) {
		ui, uj := &updates[i], &updates[j]
		var ni, ci, nj, cj float64
		if ui.scanned && uj.scanned {
			ni, ci, nj, cj = ref.CosinePair(ui.Delta, uj.Delta, ui.scan, uj.scan)
		} else {
			ni, ci, nj, cj = ref.NormCosinePair(ui.Delta, uj.Delta)
		}
		set(i, ni, ci)
		set(j, nj, cj)
	})
}

// forDensePairs hands the dense updates to pair two at a time — equal
// lengths, so one loop can interleave their reductions — and the rest, the
// top-k uploads and a last unpaired dense update, to one.
func forDensePairs(updates []Update, one func(i int), pair func(i, j int)) {
	held := -1
	for i := range updates {
		switch {
		case updates[i].sparse():
			one(i)
		case held < 0:
			held = i
		default:
			pair(held, i)
			held = -1
		}
	}
	if held >= 0 {
		one(held)
	}
}

// sparseCosine returns cos(Δ_i, y) for a top-k upload in O(k), under the
// CosineSimilarity conventions (0 for a degenerate vector, clamped to
// [−1, 1]), given y's largest magnitude my = MaxAbs(y) (non-zero) and
// rescaled norm ny = ‖y/my‖. The sparse inner product runs through the
// AVX2 gather kernel (vecmath.GatherDot) and normalizes afterwards; when
// the raw product overflows, both sides are rescaled by their largest
// magnitudes first — the same overflow guard CosineSimilarity applies to
// dense uploads.
func (u *Update) sparseCosine(y []float64, my, ny float64) float64 {
	p := u.Payload
	if ny == 0 || math.IsNaN(ny) {
		return 0
	}
	nv := vecmath.Norm2Safe(p.Val)
	if nv == 0 {
		return 0
	}
	// A product of norms beyond float64 range would read as cosine 0, so
	// it takes the rescaled path too.
	if dot, den := vecmath.GatherDot(p.Idx, p.Val, y), nv*my*ny; !math.IsNaN(dot) && !math.IsInf(dot, 0) && !math.IsInf(den, 0) {
		if c := dot / den; !math.IsNaN(c) && !math.IsInf(c, 0) {
			return vecmath.Clamp(c, -1, 1)
		}
	}
	mv := vecmath.MaxAbs(p.Val)
	if mv == 0 || math.IsNaN(mv) {
		return 0
	}
	invV, invY := 1/mv, 1/my
	var dot, snv float64
	for j, i := range p.Idx {
		sv := p.Val[j] * invV
		dot += sv * (y[i] * invY)
		snv += sv * sv
	}
	if snv == 0 {
		return 0
	}
	return vecmath.Clamp(dot/(math.Sqrt(snv)*ny), -1, 1)
}

// ServerCtx is the aggregation context. Aggregate must write the next
// global model into W (in place).
type ServerCtx struct {
	// Round is the completed communication round t.
	Round int
	// W is the global model w^t, to be advanced to w^{t+1} in place.
	W []float64
	// WPrev is a stable copy of w^t (W's value at entry to Aggregate), so
	// aggregation rules that advance W in place can still read the
	// pre-aggregation model, e.g. TACO's z_t output (Eq. (15)).
	WPrev []float64
	// Env echoes the training environment.
	Env *Env
	// Active flags which clients are still participating.
	Active []bool

	expelled []int
	weights  []float64
	reported []float64
}

// Expel schedules a client's removal from all future rounds (TACO's
// freeloader expulsion, Algorithm 2 line 12).
func (s *ServerCtx) Expel(client int) {
	s.expelled = append(s.expelled, client)
}

// Expelled returns the clients Expel scheduled during this context's
// current Aggregate call, in call order.
func (s *ServerCtx) Expelled() []int { return s.expelled }

// GlobalLR returns ηg with the paper's K·ηl default applied.
func (s *ServerCtx) GlobalLR() float64 { return s.Env.Cfg.globalLR() }

// AggregationWeights returns the Eq. (6) weights over the updates (see
// the package-level AggregationWeights for the rule), backed by a scratch
// buffer owned by the context so steady-state aggregation allocates
// nothing. The slice is valid until the next call on this context. The
// weights are also recorded as the rule's reported weights (see
// ReportWeights); rules that re-weight further must report again.
func (s *ServerCtx) AggregationWeights(updates []Update) []float64 {
	if cap(s.weights) < len(updates) {
		s.weights = make([]float64, len(updates))
	}
	w := s.weights[:len(updates)]
	aggregationWeightsInto(w, updates, s.Env.Cfg.WeightByData)
	s.ReportWeights(w)
	return w
}

// ReportWeights records the per-update aggregation weights the rule
// actually used this round (w[i] belongs to updates[i] of the Aggregate
// call), copied into a context-owned buffer. The engine derives the
// honest-vs-corrupt weight-mass metrics and per-client cumulative weights
// from the last report of each round; rules with tailored weightings
// (TACO's α-weights, FoolsGold's similarity weights) call this with their
// normalized weights, and ServerCtx.AggregationWeights reports
// automatically for every rule built on it.
func (s *ServerCtx) ReportWeights(w []float64) {
	if cap(s.reported) < len(w) {
		s.reported = make([]float64, len(w))
	}
	s.reported = s.reported[:len(w)]
	copy(s.reported, w)
}

// Algorithm is the hook set an FL method implements. Hooks prefixed
// "Local" run concurrently for different clients: implementations must
// confine per-client mutable state to per-client storage.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Setup is called once with the environment before round 0.
	Setup(env *Env)
	// LocalInit writes the client's round-t starting parameters into out
	// (usually the global model w; FedACG adds server momentum).
	LocalInit(client, round int, w []float64, out []float64)
	// BeginLocal runs once per client per round before the local loop.
	BeginLocal(client, round int, w0 []float64)
	// GradAdjust applies the method's per-step correction to ctx.Grad.
	GradAdjust(ctx *StepCtx)
	// EndLocal runs after the local loop with the client's delta
	// (read-only; the engine reuses the buffer).
	EndLocal(client, round int, delta []float64)
	// Aggregate combines the round's updates into the next global model.
	Aggregate(s *ServerCtx, updates []Update)
	// Costs reports the modeled per-step computation profile.
	Costs() simclock.Costs
	// FinalModel maps aggregated parameters to the evaluation model
	// (identity for all methods except TACO's z_t, Eq. (15)).
	FinalModel(w []float64) []float64
	// MeanAlpha reports the mean correction coefficient of the last
	// aggregation for diagnostics; algorithms without one return 0.
	MeanAlpha() float64
}

// RequiresF64Engine is declared for the benchmark module's decorator; no
// algorithm implements it and the engine never asks for it.
type RequiresF64Engine interface {
	// RequiresF64Engine is a marker; it is never called.
	RequiresF64Engine()
}

// Base provides no-op defaults for the optional Algorithm hooks; concrete
// algorithms embed it and override what they need.
type Base struct{}

// Setup implements Algorithm.
func (Base) Setup(*Env) {}

// LocalInit implements Algorithm with the standard w_{i,0} ← w^t.
func (Base) LocalInit(_, _ int, w []float64, out []float64) { copy(out, w) }

// BeginLocal implements Algorithm.
func (Base) BeginLocal(int, int, []float64) {}

// GradAdjust implements Algorithm.
func (Base) GradAdjust(*StepCtx) {}

// EndLocal implements Algorithm.
func (Base) EndLocal(int, int, []float64) {}

// Costs implements Algorithm with the plain FedAvg profile.
func (Base) Costs() simclock.Costs { return simclock.Plain() }

// FinalModel implements Algorithm as the identity.
func (Base) FinalModel(w []float64) []float64 { return w }

// MeanAlpha implements Algorithm.
func (Base) MeanAlpha() float64 { return 0 }

// StalenessDamp returns the FedBuff-style polynomial damping factor
// 1/√(1+s) applied to an update that is s server versions stale. Fresh
// updates (s ≤ 0) keep weight 1 exactly, so synchronous aggregation is
// bit-identical with or without the damping in the formula.
func StalenessDamp(staleness int) float64 {
	if staleness <= 0 {
		return 1
	}
	return 1 / math.Sqrt(1+float64(staleness))
}

// AggregationWeights returns the weights p_i of Eq. (6) over the active
// updates: D_i/D when cfg.WeightByData, else 1/N_active. When any update
// is stale (async policy), each base weight is damped by
// StalenessDamp(s_i) and the result renormalized; with all-fresh updates
// the legacy weights are returned bit-identically.
func AggregationWeights(updates []Update, weightByData bool) []float64 {
	weights := make([]float64, len(updates))
	aggregationWeightsInto(weights, updates, weightByData)
	return weights
}

// aggregationWeightsInto computes AggregationWeights into the caller's
// buffer (len(weights) == len(updates)).
func aggregationWeightsInto(weights []float64, updates []Update, weightByData bool) {
	if weightByData {
		total := 0
		for _, u := range updates {
			total += u.NumSamples
		}
		for i, u := range updates {
			weights[i] = float64(u.NumSamples) / float64(total)
		}
	} else {
		for i := range weights {
			weights[i] = 1 / float64(len(updates))
		}
	}
	anyStale := false
	for _, u := range updates {
		if u.Staleness > 0 {
			anyStale = true
			break
		}
	}
	if !anyStale {
		return
	}
	var sum float64
	for i, u := range updates {
		weights[i] *= StalenessDamp(u.Staleness)
		sum += weights[i]
	}
	for i := range weights {
		weights[i] /= sum
	}
}

// FedAvgStep applies the vanilla aggregation of Eq. (6) with ∆^{t+1} =
// Σ p_i ∆_i / (K·ηl): with the default ηg = K·ηl the global model moves by
// the weighted mean client delta. Shared by FedAvg, FedProx, and Scaffold.
// Sparse uploads fold in via their O(k) scatter view (Update.AddScaled).
func FedAvgStep(s *ServerCtx, updates []Update) {
	weights := s.AggregationWeights(updates)
	scale := s.GlobalLR() / (float64(s.Env.Cfg.LocalSteps) * s.Env.Cfg.LocalLR)
	for i := range updates {
		updates[i].AddScaled(-weights[i]*scale, s.W)
	}
}
