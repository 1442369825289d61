package fl

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// poolSetup builds an adult federation with n clients for the white-box
// pool tests.
func poolSetup(t testing.TB, n int) (*nn.Network, []*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test, err := dataset.Standard("adult", dataset.ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, n, 0.5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataset.Model("adult")
	if err != nil {
		t.Fatal(err)
	}
	return net, part.Shards(train), test
}

// TestSteadyStateAllocs pins the zero-allocation property of warmed-up
// rounds: once the slot pool's delta ring and the scheduler's reusable
// buffers reach their high-water mark, a round allocates nothing under
// any aggregation policy — including with update-level attack injectors
// (sign flip, scaling, delta noise; adversary.go) live on the delta
// checkout path, whose per-client streams and reusable contexts are all
// provisioned at setup, and with an uplink codec live (top-k or int8),
// whose payload buffers ride the delta ring and whose error-feedback
// residuals are lazily allocated during warmup. Evaluation is pushed
// past the measured window (EvalEvery) except in the -eval variants,
// whose every round queues its evaluation job on the pool: its shards'
// engines, prediction buffers and class tallies exist after the first
// evaluation, so it allocates nothing either. Fault injection rides
// the same contract: the fault plan, dup flags, and retry tables are all
// provisioned at setup, so fault-resolved rounds (crash/drop/dup/slow
// draws, retry chains, quorum checks) allocate nothing either —
// checkpoint rounds are excluded (CheckpointEvery 0 here); snapshots
// are allowed to allocate.
func TestSteadyStateAllocs(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	injectors := []adversary.Spec{
		{Kind: adversary.KindSignFlip, Clients: []int{1}},
		{Kind: adversary.KindScale, Clients: []int{3}, Scale: 2},
		{Kind: adversary.KindDeltaNoise, Clients: []int{3, 5}, Scale: 1},
	}
	faultMix := []fault.Spec{
		{Kind: fault.KindCrash, Frac: 0.2},
		{Kind: fault.KindDrop, Frac: 0.15},
		{Kind: fault.KindDup, Frac: 0.2},
		{Kind: fault.KindSlow, Frac: 0.3, Param: 3},
	}
	variants := []struct {
		name     string
		adv      bool
		compress compress.Spec
		faults   []fault.Spec
		quorum   float64
		stacked  bool
		partial  float64
		fleet    int // client identities, the shards tiled by pointer; 0 keeps the 8 shards
		eval     bool
	}{
		{name: "", adv: false},
		{name: "-eval", eval: true},
		{name: "-injectors", adv: true},
		{name: "-topk", compress: compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.1}},
		{name: "-int8", compress: compress.Spec{Kind: compress.KindInt8, Chunk: 256}},
		{name: "-faults", faults: faultMix, quorum: 0.5},
		{name: "-faults-int8", faults: faultMix, compress: compress.Spec{Kind: compress.KindInt8, Chunk: 256}},
		// The full aggregation stack (zeroing|clip + FedAdam) rides the
		// same contract: stage scratch, survivor lists, weight re-map
		// buffers, and optimizer moments are all sized at Setup.
		{name: "-stack", stacked: true},
		// Stack + injectors exercises the weight re-map path with the
		// honest/corrupt mass accounting live every round.
		{name: "-stack-injectors", stacked: true, adv: true},
		// Partial participation samples into the scheduler's reused
		// Fisher–Yates buffer and maps through its kept active-id list.
		// Validate rejects it under async, which has no rounds to sample.
		{name: "-partial", partial: 0.25},
		// A fresh cohort: ten of 2 000 identities a round, so nearly
		// every participant trains for the first time, and a client's
		// first batch must allocate nothing either.
		{name: "-fresh-cohort", partial: 0.005, fleet: 2000},
	}
	for _, v := range variants {
		for _, policy := range []AggregationPolicy{PolicySync, PolicyDeadline, PolicyAsync} {
			if v.partial > 0 && policy == PolicyAsync {
				continue
			}
			name := policy.String() + v.name
			t.Run(name, func(t *testing.T) {
				cfg := Config{
					Rounds:     200,
					LocalSteps: 3,
					BatchSize:  8,
					LocalLR:    0.05,
					Seed:       11,
					EvalEvery:  1000,
					Policy:     policy,
					Compress:   v.compress,
				}
				if v.eval {
					cfg.EvalEvery = 1
				}
				cfg.ParticipationFraction = v.partial
				if v.adv {
					cfg.Adversaries = injectors
				}
				if v.stacked {
					cfg.AggStack = mustStack(t, "zeroing|clip")
					cfg.ServerOpt = mustOpt(t, "adam:0.1")
				}
				if v.faults != nil {
					cfg.Faults = v.faults
					if policy != PolicyAsync {
						// Quorum is a round-commit concept; async has no rounds.
						cfg.Quorum = v.quorum
					}
				}
				switch policy {
				case PolicyDeadline:
					// Generous deadline: nobody drops, rounds stay uniform.
					cfg.RoundDeadlineSec = 10 * simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, simclock.Plain())
				case PolicyAsync:
					cfg.AsyncBuffer = 3
					// Two slots on any host, so queued rounds (runLater)
					// train on a worker goroutine and are held to 0
					// allocations too.
					cfg.Parallelism = 2
				}
				fleet := shards
				if v.fleet > 0 {
					fleet = tile(shards, v.fleet)
				}
				s, err := newScheduler(cfg, goldenFedAvg{}, net, fleet, test)
				if err != nil {
					t.Fatal(err)
				}
				defer s.exec.close()

				if policy == PolicyAsync {
					if err := s.setupAsync(); err != nil {
						t.Fatal(err)
					}
				}
				round := 0
				policyStep := s.step()
				step := func() (bool, error) { return policyStep(round) }

				// Warm up: first rounds grow the delta ring, the engines'
				// backward buffers, and the metric history's capacity.
				for ; round < 5; round++ {
					if halt, err := step(); err != nil || halt {
						t.Fatalf("warmup round %d: halt=%v err=%v", round, halt, err)
					}
				}
				allocs := testing.AllocsPerRun(30, func() {
					halt, err := step()
					if err != nil || halt {
						t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
					}
					round++
				})
				if allocs != 0 {
					t.Fatalf("steady-state %s round allocates %.1f objects/round, want 0", name, allocs)
				}
			})
		}
	}
}

// BenchmarkParticipants times the round's participant sample alone:
// Floyd's draw of the cohort's positions into the reused ids buffer
// (rng.FloydInto over the scheduler's mark bitset), then its sort and
// mapping through the active list. Two shapes: the 100k fleet's — 100
// shards tiled by pointer to 100 000 clients, fraction 1e-4, so 10
// clients a round — and the wire workloads', 500 of 1 000 clients. The
// draw costs O(cohort), whatever the fleet size.
func BenchmarkParticipants(b *testing.B) {
	net, base, test := poolSetup(b, 100)
	for _, shape := range []struct{ n, take int }{{100_000, 10}, {1_000, 500}} {
		b.Run(fmt.Sprintf("n=%d/take=%d", shape.n, shape.take), func(b *testing.B) {
			frac := float64(shape.take) / float64(shape.n)
			cfg := Config{Rounds: 1, LocalSteps: 1, BatchSize: 8, LocalLR: 0.05, Seed: 11, ParticipationFraction: frac}
			s, err := newScheduler(cfg, goldenFedAvg{}, net, tile(base, shape.n), test)
			if err != nil {
				b.Fatal(err)
			}
			defer s.exec.close()
			if take, _ := s.cohort(shape.n); take != shape.take {
				b.Fatalf("cohort of %d, want %d", take, shape.take)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.participants(i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
		})
	}
}

// tile repeats shards by pointer into a fleet of n client identities.
func tile(shards []*dataset.Dataset, n int) []*dataset.Dataset {
	fleet := make([]*dataset.Dataset, n)
	for i := range fleet {
		fleet[i] = shards[i%len(shards)]
	}
	return fleet
}

// TestFleetSetupAllocs pins fleet construction to a fixed number of
// allocations: newScheduler, and newFleet as a worker's reset calls it,
// allocate exactly as often for 100 000 clients as for 1 000 — every
// per-client structure is one slab.
func TestFleetSetupAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 100 000-client fleets")
	}
	net, base, test := poolSetup(t, 8)
	// The cases: partial participation (the sampler buffers), async (the
	// flight table is built by setupAsync, not here; one slot, so no
	// queued-round table), and an int8 codec with
	// every dispatch fault (quantization streams, residual rows, the fault
	// lists and the stream slab). Parallelism is fixed so the slot count does not
	// follow the host's cores.
	fleetConfigs := []struct {
		name string
		cfg  Config
	}{
		{"sync-partial", Config{Rounds: 1, LocalSteps: 1, BatchSize: 8, LocalLR: 0.05, Seed: 11, Parallelism: 2, ParticipationFraction: 1e-3}},
		{"async", Config{Rounds: 1, LocalSteps: 1, BatchSize: 8, LocalLR: 0.05, Seed: 11, Policy: PolicyAsync, AsyncBuffer: 3, Parallelism: 1}},
		{"int8-faults", Config{Rounds: 4, LocalSteps: 1, BatchSize: 8, LocalLR: 0.05, Seed: 11, Parallelism: 2,
			Compress: compress.Spec{Kind: compress.KindInt8, Chunk: 256},
			Faults: []fault.Spec{
				{Kind: fault.KindCrash, Frac: 0.2},
				{Kind: fault.KindDrop, Frac: 0.1},
				{Kind: fault.KindDup, Frac: 0.2},
				{Kind: fault.KindSlow, Frac: 0.3, Param: 3},
				{Kind: fault.KindCrash, Frac: 0.05},
				{Kind: fault.KindServerCrash, Round: 2},
			}, CheckpointEvery: 1}},
	}
	for _, fc := range fleetConfigs {
		t.Run(fc.name, func(t *testing.T) {
			var sched, worker [2]uint64
			for k, n := range []int{1000, 100_000} {
				shards := tile(base, n)
				sched[k] = setupMallocs(func() {
					s, err := newScheduler(fc.cfg, goldenFedAvg{}, net, shards, test)
					if err != nil {
						t.Fatal(err)
					}
					s.exec.close()
				})
				worker[k] = setupMallocs(func() {
					if _, err := newFleet(&fc.cfg, shards, 0, false); err != nil {
						t.Fatal(err)
					}
				})
			}
			if sched[0] != sched[1] {
				t.Errorf("newScheduler makes %d allocations for 1 000 clients, %d for 100 000", sched[0], sched[1])
			}
			if worker[0] != worker[1] {
				t.Errorf("a worker's reset makes %d allocations for 1 000 clients, %d for 100 000", worker[0], worker[1])
			}
			t.Logf("newScheduler %d allocations, worker reset %d", sched[0], worker[0])
		})
	}
}

// setupMallocs counts the heap allocations of one call to f, the fewest
// of three. The collector is paused during each call, because a cycle
// started by a large slab makes allocations of its own; the pause before
// it lets the cleanups of the previous cycle finish. One P keeps exited
// goroutine records on the free list the next go statement takes from,
// so the slot pool's workers allocate none after the first call; the
// minimum drops what the runtime still allocates only sometimes.
func setupMallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	for range 3 {
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
		old := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(old)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// BenchmarkFleetSetup times newScheduler — fleet construction plus the
// slot pool, eval engine and scheduler buffers — on the 100k fleet's shape
// (shards tiled by pointer, fraction 1e-4) at 1 000 and 100 000 clients,
// with allocs/op and ns per client. Its close is inside the loop, so the
// pool's goroutines do not pile up.
func BenchmarkFleetSetup(b *testing.B) {
	net, base, test := poolSetup(b, 100)
	cfg := Config{Rounds: 1, LocalSteps: 1, BatchSize: 8, LocalLR: 0.05, Seed: 11, ParticipationFraction: 1e-4}
	for _, n := range []int{1000, 100_000} {
		shards := tile(base, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := newScheduler(cfg, goldenFedAvg{}, net, shards, test)
				if err != nil {
					b.Fatal(err)
				}
				s.exec.close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/client")
		})
	}
}

// TestSlotPoolStressBitIdentity is the n ≫ P stress regression: with 32
// clients multiplexed over 1 vs 8 slots the slot→client assignment (and
// hence the buffer reuse pattern) differs completely between the runs,
// yet results must stay bit-identical — any read-before-write leakage of
// slot or engine state would surface here. TACO exercises the fused
// correction path and per-client coefficients on top.
func TestSlotPoolStressBitIdentity(t *testing.T) {
	net, shards, test := poolSetup(t, 32)
	base := Config{
		Rounds:     4,
		LocalSteps: 3,
		BatchSize:  8,
		LocalLR:    0.05,
		Seed:       19,
	}
	for _, algName := range []string{"fedavg", "taco"} {
		t.Run(algName, func(t *testing.T) {
			mk := func() Algorithm {
				if algName == "taco" {
					return newTestTACO(t)
				}
				return goldenFedAvg{}
			}
			cfgA := base
			cfgA.Parallelism = 1
			cfgB := base
			cfgB.Parallelism = 8
			resA, err := Run(cfgA, mk(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			resB, err := Run(cfgB, mk(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if ha, hb := paramsHash(resA.FinalParams), paramsHash(resB.FinalParams); ha != hb {
				t.Fatalf("FinalParams differ across slot counts: %016x vs %016x", ha, hb)
			}
		})
	}
}

// newTestTACO builds a TACO-like correction algorithm without importing
// internal/core (import cycle): a fixed correction vector fused into the
// step plus Scaffold-style per-client state, enough to stress the fused
// path and buffer reuse.
func newTestTACO(t *testing.T) Algorithm { return &fusedCorrAlg{} }

// fusedCorrAlg is a white-box stand-in exercising FuseCorrection with a
// per-client coefficient and cross-round per-client state.
type fusedCorrAlg struct {
	Base
	corr  []float64
	coeff []float64
}

func (a *fusedCorrAlg) Name() string { return "fusedCorr" }
func (a *fusedCorrAlg) Setup(env *Env) {
	a.corr = make([]float64, env.NumParams)
	a.coeff = make([]float64, env.NumClients)
	for i := range a.coeff {
		a.coeff[i] = 0.01 * float64(i+1)
	}
}
func (a *fusedCorrAlg) GradAdjust(ctx *StepCtx) {
	ctx.FuseCorrection(a.coeff[ctx.Client], a.corr)
}
func (a *fusedCorrAlg) Aggregate(s *ServerCtx, updates []Update) {
	FedAvgStep(s, updates)
	// The broadcast correction for the next round is the mean delta in
	// gradient units, as TACO's Eq. (9) does.
	inv := 1 / (float64(s.Env.Cfg.LocalSteps) * s.Env.Cfg.LocalLR * float64(len(updates)))
	for i := range a.corr {
		a.corr[i] = 0
	}
	for _, u := range updates {
		for i, d := range u.Delta {
			a.corr[i] += inv * d
		}
	}
}

// TestSlotPoolMemoryFootprint demonstrates the tentpole memory win: the
// live heap a 500-client run retains with the pooled P=8 configuration
// must be at least 5× smaller than with P=500 (one slot per client — the
// pre-pool layout, where every client owned an engine and its parameter
// buffers). Partial participation keeps the per-round delta ring small,
// as the large-fleet experiments (scale1k) run it.
func TestSlotPoolMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("500-client footprint measurement in -short mode")
	}
	net, shards, test := poolSetup(t, 500)
	cfg := Config{
		Rounds:                50,
		LocalSteps:            2,
		BatchSize:             8,
		LocalLR:               0.05,
		Seed:                  7,
		EvalEvery:             1000,
		ParticipationFraction: 0.1,
	}

	// liveHeap settles the heap before reading, as in
	// TestSlotPoolF32Footprint: garbage left by earlier tests is collected
	// before the first reading, not between the two.
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// footprint is the live heap a run adds, as a signed delta: a heap that
	// shrinks between the readings reads ≤ 0 instead of wrapping around.
	footprint := func(parallelism int) int64 {
		c := cfg
		c.Parallelism = parallelism
		before := liveHeap()
		s, err := newScheduler(c, goldenFedAvg{}, net, shards, test)
		if err != nil {
			t.Fatal(err)
		}
		defer s.exec.close()
		for round := 0; round < 3; round++ {
			if halt, err := s.round(round); err != nil || halt {
				t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
			}
		}
		live := liveHeap() - before
		runtime.KeepAlive(s)
		return live
	}
	// measure re-measures a delta that reads ≤ 0 — the heap lost more
	// unrelated garbage than the run added — and fails if it keeps doing so.
	measure := func(parallelism int) int64 {
		const attempts = 3
		for i := 0; i < attempts; i++ {
			if live := footprint(parallelism); live > 0 {
				return live
			}
		}
		t.Fatalf("P=%d live-heap delta read ≤ 0 in %d attempts: the heap shrank between the readings, so the footprint cannot be measured", parallelism, attempts)
		return 0
	}

	pooled := measure(8)
	perClient := measure(500)
	t.Logf("500-client live heap: P=8 pooled %.2f MiB, P=500 per-client %.2f MiB (%.1fx)",
		float64(pooled)/(1<<20), float64(perClient)/(1<<20), float64(perClient)/float64(pooled))
	if float64(perClient) < 5*float64(pooled) {
		t.Fatalf("pooled footprint %d B is not ≥5x smaller than per-client %d B", pooled, perClient)
	}
}

// TestSlotPoolF32Footprint pins the fp32 half of the footprint story.
// The whole-run heap is diluted by dtype-independent server state
// (global model, aggregation buffers, eval machinery — float64 by
// design, DESIGN.md §10), so the test isolates the quantity the DType
// switch actually changes: the per-slot increment, measured as the live
// heap difference between P=8 and P=1 runs divided by the seven extra
// slots. On the CNN model the slot is dominated by its engine's
// activation/gradient/col buffers, which halve exactly under fp32; the
// five float64 bridge buffers each slot keeps for hook visibility pull
// the ratio back up, so the bound is a conservative 0.70 rather than a
// strict 0.5. The absolute per-slot figures are bounded too, just below
// what they were while the engine still carried an input-gradient buffer.
func TestSlotPoolF32Footprint(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint measurement in -short mode")
	}
	train, test, err := dataset.Standard("fmnist", dataset.ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, 64, 0.5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataset.Model("fmnist")
	if err != nil {
		t.Fatal(err)
	}
	shards := part.Shards(train)
	cfg := Config{
		Rounds:     50,
		LocalSteps: 2,
		BatchSize:  32, // engine buffers scale with batch; bridge vectors don't
		LocalLR:    0.05,
		Seed:       7,
		EvalEvery:  1000,
	}

	// liveHeap settles the heap before reading: a single GC leaves
	// second-cycle garbage (sync.Pool contents, finalizer chains) from
	// earlier tests in the same binary, which would then be collected
	// between the two readings and deflate the delta.
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	footprint := func(dtype string, parallelism int) uint64 {
		c := cfg
		c.DType = dtype
		c.Parallelism = parallelism
		before := liveHeap()
		s, err := newScheduler(c, goldenFedAvg{}, net, shards, test)
		if err != nil {
			t.Fatal(err)
		}
		defer s.exec.close()
		// Three rounds force the lazily allocated state (engine gradient
		// buffers, delta ring) to its steady-state high-water mark. A round
		// need not reach every slot, so each one then trains once more.
		for round := 0; round < 3; round++ {
			if halt, err := s.round(round); err != nil || halt {
				t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
			}
		}
		delta := make([]float64, net.NumParams())
		for _, sl := range s.pool.slots {
			c := &s.clients[0]
			localUpdate(&s.cfg, s.alg, c, sl, delta, 3, s.params, c.sampler)
		}
		live := liveHeap() - before
		runtime.KeepAlive(s)
		return live
	}

	perSlot := func(dtype string) float64 {
		p8 := footprint(dtype, 8)
		p1 := footprint(dtype, 1)
		return float64(p8-p1) / 7
	}

	slot64 := perSlot("")
	slot32 := perSlot("f32")
	ratio := slot32 / slot64
	t.Logf("fmnist per-slot live heap: f64 %.1f KiB, f32 %.1f KiB (f32/f64 = %.2f)",
		slot64/(1<<10), slot32/(1<<10), ratio)
	if ratio > 0.70 {
		t.Fatalf("f32 per-slot heap %.0f B is not ≤0.70x the f64 per-slot heap %.0f B", slot32, slot64)
	}
	// The engine keeps no gradient buffer for the network input and conv1
	// no dcol scratch: batch 32 × 64 inputs and 9 × 64 patch elements, 20.5
	// KiB at float64, 10.3 at float32. With them a slot read 1327.3 and
	// 836.8 KiB, without them it reads 1307.2 and 826.8; each bound sits
	// between the two, so neither buffer can come back unnoticed.
	if slot64 > 1317<<10 || slot32 > 832<<10 {
		t.Fatalf("per-slot heap f64 %.1f KiB / f32 %.1f KiB: above the 1317 / 832 KiB a slot without an input-gradient buffer stays under",
			slot64/(1<<10), slot32/(1<<10))
	}
}

// barrierJob is a pool job whose first width positions each wait until
// all width of them are running, and which records the slot every
// position ran on and the one its last position ran on.
type barrierJob struct {
	progress
	width   int
	arrived atomic.Int32
	all     chan struct{}
	mu      sync.Mutex
	ran     map[*slot]bool
	last    *slot
	late    atomic.Bool
}

func (b *barrierJob) run(i int, sl *slot) {
	if i < b.width {
		if int(b.arrived.Add(1)) == b.width {
			close(b.all)
		}
		select {
		case <-b.all:
		case <-time.After(10 * time.Second):
			b.late.Store(true)
		}
	}
	b.mu.Lock()
	b.ran[sl] = true
	if i == int(b.n)-1 {
		b.last = sl
	}
	b.mu.Unlock()
}

// TestSlotPoolRoundWidth pins a round's width on the one queue: a job of
// width w queued with w−1 jobs is run by the caller's join and w−1 worker
// goroutines at once, each on its own slot, and by no other runner,
// whatever the pool's size. Its first w positions meet at a barrier, so
// a job spread over fewer runners would stall there. A caller that keeps
// the last position for the jobs it queued (a wide round) never runs it.
func TestSlotPoolRoundWidth(t *testing.T) {
	checkGoroutines(t)
	net, _, _ := poolSetup(t, 8)
	p := newSlotPool(net, Config{BatchSize: 8}, 4, 8, false)
	defer p.close()
	for width := 1; width <= 4; width++ {
		b := &barrierJob{width: width, all: make(chan struct{}), ran: map[*slot]bool{}}
		b.done = make(chan struct{}, 1)
		p.start(b, 4*width, width-1)
		p.join(b, 0)
		if b.late.Load() || len(b.ran) != width || !b.ran[p.own] {
			t.Fatalf("width %d ran on %d slots (own %v, barrier timed out %v), want %d including the caller's", width, len(b.ran), b.ran[p.own], b.late.Load(), width)
		}
	}
	for range 50 {
		b := &barrierJob{width: 1, all: make(chan struct{}), ran: map[*slot]bool{}}
		b.done = make(chan struct{}, 1)
		p.start(b, 8, 3)
		p.join(b, 1)
		if b.last == nil || b.last == p.own {
			t.Fatalf("a kept last position ran on slot %p, want a worker goroutine's (own %p)", b.last, p.own)
		}
	}
}

// TestDeltaRingReuse checks the ring's steady state directly: after a few
// sync rounds with a fixed participant count the free list stops growing.
func TestDeltaRingReuse(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	cfg := Config{Rounds: 6, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 3, EvalEvery: 1000}
	s, err := newScheduler(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	defer s.exec.close()
	for round := 0; round < 3; round++ {
		if halt, err := s.round(round); err != nil || halt {
			t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
		}
	}
	high := len(s.pool.free)
	if high != 8 {
		t.Fatalf("delta ring holds %d buffers after full-participation rounds, want 8", high)
	}
	for round := 3; round < 6; round++ {
		if halt, err := s.round(round); err != nil || halt {
			t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
		}
	}
	if len(s.pool.free) != high {
		t.Fatalf("delta ring grew from %d to %d buffers in steady state", high, len(s.pool.free))
	}
}

// TestSnapshotAllocBudget pins what a checkpoint costs once the encode
// buffers are warm: a fixed overhead (the codec, the payload scratch) and
// nothing per rng stream — every cursor is appended into the codec's
// reused buffer — per recorded round, per in-flight update, or per
// coordinate. The configuration's fingerprint is hashed once per run, so
// after the first snapshot it costs nothing. It snapshots fleets of 8 and
// 32 clients (17 and 65 streams: participation, samplers, quantization)
// at an early and a late round.
func TestSnapshotAllocBudget(t *testing.T) {
	measure := func(n int) (early, late float64) {
		net, shards, test := poolSetup(t, n)
		cfg := Config{
			Rounds: 400, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 11, EvalEvery: 1000,
			Policy: PolicyAsync, AsyncBuffer: 3,
			Compress: compress.Spec{Kind: compress.KindInt8, Chunk: 256},
		}
		s, err := newScheduler(cfg, goldenFedAvg{}, net, shards, test)
		if err != nil {
			t.Fatal(err)
		}
		defer s.exec.close()
		if err := s.setupAsync(); err != nil {
			t.Fatal(err)
		}
		round := 0
		at := func(upTo int) float64 {
			for ; round < upTo; round++ {
				if _, err := s.asyncStep(round); err != nil {
					t.Fatal(err)
				}
			}
			snap := func() {
				if err := s.snapshot(round); err != nil {
					t.Fatal(err)
				}
			}
			snap()
			return testing.AllocsPerRun(5, snap)
		}
		early, late = at(40), at(200)
		if a := testing.AllocsPerRun(5, func() { s.fingerprint() }); a != 0 {
			t.Errorf("fingerprint allocated %.0f times after the first snapshot, want 0 (hashed once per run)", a)
		}
		t.Logf("%d clients: %.0f allocs per snapshot at round 40, %.0f at round 200 (d=%d)", n, early, late, len(s.params))
		return early, late
	}
	// 160 more recorded rounds cost thousands when a snapshot allocates per
	// round, and 48 more streams cost 48 when it allocates per cursor.
	// Without the race detector a snapshot costs 11 (60 while every
	// snapshot printed the configuration for its fingerprint).
	const slack, budget = 16, 32
	early8, late8 := measure(8)
	_, late32 := measure(32)
	if late8 > early8+slack {
		t.Errorf("snapshot allocations grow with the history: %.0f at round 40, %.0f at round 200", early8, late8)
	}
	if late32 > late8+slack {
		t.Errorf("snapshot allocations grow with the fleet: %.0f at 8 clients, %.0f at 32", late8, late32)
	}
	if late := max(late8, late32); late > budget {
		t.Errorf("snapshot allocated %.0f times, budget %d", late, budget)
	}
}

// TestSnapshotAllocBytes pins that a warm snapshot encodes into the
// retained blob and allocates no blob-sized buffer beside it: over 20
// steps of a 32-client async int8 f32 run, each followed by a snapshot
// (so the blob grows with the history as in a run), the snapshots
// allocate under 64 KB each on average, a fraction of the blob.
func TestSnapshotAllocBytes(t *testing.T) {
	net, shards, test := poolSetup(t, 32)
	cfg := Config{
		Rounds: 100, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 11, EvalEvery: 1000,
		Policy: PolicyAsync, AsyncBuffer: 3, DType: "f32",
		Compress: compress.Spec{Kind: compress.KindInt8, Chunk: 256},
	}
	s, err := newScheduler(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	defer s.exec.close()
	if err := s.setupAsync(); err != nil {
		t.Fatal(err)
	}
	step := func(round int) {
		if _, err := s.asyncStep(round); err != nil {
			t.Fatal(err)
		}
	}
	const warm, steps, budget = 40, 20, 64 << 10
	for round := 0; round < warm; round++ {
		step(round)
	}
	if err := s.snapshot(warm); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var total uint64
	for round := warm; round < warm+steps; round++ {
		step(round)
		runtime.ReadMemStats(&before)
		if err := s.snapshot(round + 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	per := total / steps
	t.Logf("%d B allocated per snapshot of a %d B blob", per, len(s.lastCkpt))
	if per >= budget {
		t.Errorf("a snapshot allocated %d B on average (blob %d B), budget %d", per, len(s.lastCkpt), budget)
	}
	if len(s.lastCkpt) < 2*budget {
		t.Errorf("blob of %d B is too small for the %d B budget to tell a blob-sized buffer", len(s.lastCkpt), budget)
	}
}
