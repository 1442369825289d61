package fl

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// CheckGoroutines lends the package's goroutine-leak check to the
// external (fl_test) serve tests.
var CheckGoroutines = checkGoroutines

// ObserveReplayWidth hooks every RunWorkerOpts started during the test
// and returns a reader of two sums over their slot pools, valid once the
// workers have returned: the slots grown past Parallelism for history
// replay, and the clients that trained off the caller's slot, which at
// Parallelism 1 are adopted clients of widened sub-batches.
func ObserveReplayWidth(t *testing.T) func() (extra, widened int) {
	var mu sync.Mutex
	var pools []*slotPool
	workerObserve = func(p *slotPool) {
		mu.Lock()
		pools = append(pools, p)
		mu.Unlock()
	}
	t.Cleanup(func() { workerObserve = nil })
	return func() (extra, widened int) {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range pools {
			extra += max(0, len(p.slots)-p.cfg.parallelism())
			widened += int(p.offloaded.Load())
		}
		return extra, widened
	}
}

// RunLaterCounts is Run, or Resume when checkpoint is not nil, that also
// returns how many of the one-client rounds the run queued on its pool
// (slotPool.runLater) ran on the caller's slot and on the workers' slots.
func RunLaterCounts(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset, checkpoint []byte) (res *Result, helped, offloaded int, err error) {
	s, err := newScheduler(cfg, alg, net, shards, test)
	if err != nil {
		return nil, 0, 0, err
	}
	defer s.exec.close()
	if checkpoint != nil {
		if err := s.restore(checkpoint, true); err != nil {
			return nil, 0, 0, err
		}
	}
	if err := s.runAll(checkpoint != nil); err != nil {
		return nil, 0, 0, err
	}
	return s.result(), s.pool.helped, s.pool.queued - s.pool.helped, nil
}

// RestoredFlights restores checkpoint into a fresh scheduler built from
// the same arguments and returns how many async flights it holds live.
func RestoredFlights(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset, checkpoint []byte) (int, error) {
	s, err := newScheduler(cfg, alg, net, shards, test)
	if err != nil {
		return 0, err
	}
	defer s.exec.close()
	if err := s.restore(checkpoint, true); err != nil {
		return 0, err
	}
	live := 0
	for i := range s.pending {
		if s.pending[i].live {
			live++
		}
	}
	return live, nil
}

// RunFailedEnds is Run that also counts the failed async flights that
// ended Abandoned or ExpelledInFlight, outcomes a delivered flight can end
// in too. The pending table tells them apart at the run's end: an
// abandoned one is still live and not deferred, and one expelled in
// flight was consumed and never replaced, since nothing re-dispatches an
// expelled client.
func RunFailedEnds(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset) (*Result, int, error) {
	s, err := newScheduler(cfg, alg, net, shards, test)
	if err != nil {
		return nil, 0, err
	}
	defer s.exec.close()
	if err := s.runAll(false); err != nil {
		return nil, 0, err
	}
	ends := 0
	for id := range s.pending {
		if f := &s.pending[id]; f.failed && (f.live && !f.deferred || !f.live && !s.active[id]) {
			ends++
		}
	}
	return s.result(), ends, nil
}

// AsyncProbe is an in-process async scheduler stopped between server
// steps, whose clients a test dispatches by hand.
type AsyncProbe struct{ s *scheduler }

// NewAsyncProbe builds cfg's scheduler and runs its first steps server
// steps. Close stops it.
func NewAsyncProbe(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset, steps int) (*AsyncProbe, error) {
	s, err := newScheduler(cfg, alg, net, shards, test)
	if err != nil {
		return nil, err
	}
	if err := s.setupAsync(); err != nil {
		s.exec.close()
		return nil, err
	}
	for t := range steps {
		if _, err := s.asyncStep(t); err != nil {
			s.exec.close()
			return nil, err
		}
	}
	return &AsyncProbe{s}, nil
}

// Dispatch replaces client id's flight with a new dispatch at the
// scheduler's clock, queued on the pool when later is set, joins its
// round and releases its update. It reports whether the attempt failed.
func (p *AsyncProbe) Dispatch(id int, later bool) (failed bool) {
	s := p.s
	f := &s.pending[id]
	s.exec.settleOne(&f.update, nil)
	s.exec.release(&f.update)
	s.oneID[0] = id
	s.dispatch(s.oneID[:1], s.now, later)
	s.exec.settleOne(&f.update, &f.measured)
	s.exec.release(&f.update)
	return f.failed
}

// State returns client id's sampler and quantization stream cursors and
// error-feedback residual bits, then the algorithm's saved state, when
// it has one.
func (p *AsyncProbe) State(id int) ([]byte, error) {
	s := p.s
	out, err := s.clients[id].sampler.Stream().AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	if comp := s.pool.comp; comp != nil {
		if out, err = comp.streams[id].AppendBinary(out); err != nil {
			return nil, err
		}
		for _, v := range comp.resid[id] {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	if sa, ok := s.alg.(StatefulAlgorithm); ok {
		var b bytes.Buffer
		if err := sa.SaveState(&b); err != nil {
			return nil, err
		}
		out = append(out, b.Bytes()...)
	}
	return out, nil
}

// Close stops the probe's pool.
func (p *AsyncProbe) Close() { p.s.exec.close() }

// naiveEval recounts a model's test accuracy and top-class share over
// Engine.Predict, one batch after another, with the evaluation's batch
// size.
func naiveEval(net *nn.Network, w []float64, test *dataset.Dataset) (acc, top float64) {
	batch, in := min(256, max(1, test.Len())), net.InShape().Size()
	eng, preds, classes := nn.NewEngine(net, batch), make([]int, batch), make([]int, net.OutSize())
	correct := 0
	for start := 0; start < test.Len(); start += batch {
		end := min(start+batch, test.Len())
		eng.Predict(w, test.X[start*in:end*in], end-start, preds)
		for k, c := range preds[:end-start] {
			classes[c]++
			if c == test.Y[start+k] {
				correct++
			}
		}
	}
	n := float64(max(1, test.Len()))
	return float64(correct) / n, float64(slices.Max(classes)) / n
}

// NaiveEval lends naiveEval to the external tests.
var NaiveEval = naiveEval

// DropKeptState forgets every worker state kept across a lost connection,
// so the next re-dial behaves like a fresh worker process: the server
// replays its history.
func DropKeptState() {
	kept.Range(func(k, _ any) bool { kept.Delete(k); return true })
}

// KeptStates returns how many worker states are kept.
func KeptStates() int {
	n := 0
	kept.Range(func(any, any) bool { n++; return true })
	return n
}

// ForgeKeptCount adds one trained dispatch of client id to every kept
// worker state.
func ForgeKeptCount(id int) {
	kept.Range(func(_, v any) bool { v.(*keptState).trained[id]++; return true })
}

// FakeClock is a clock that moves only when Advance is called. It reads
// the wall clock's time at its creation, so the socket deadlines set from
// it stay in the future.
type FakeClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at    time.Time
	every time.Duration // 0 for a one-shot timer
	c     chan time.Time
}

// UseFakeClock installs a FakeClock as the wire path's clock until the
// test ends.
func UseFakeClock(t *testing.T) *FakeClock {
	f := &FakeClock{now: time.Now()}
	f.cond = sync.NewCond(&f.mu)
	clk = f
	t.Cleanup(func() { clk = wallClock{} })
	return f
}

func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *FakeClock) arm(d, every time.Duration) *fakeTimer {
	f.mu.Lock()
	defer f.mu.Unlock()
	ft := &fakeTimer{at: f.now.Add(d), every: every, c: make(chan time.Time, 1)}
	f.timers = append(f.timers, ft)
	f.cond.Broadcast()
	return ft
}

func (f *FakeClock) stop(ft *fakeTimer) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, x := range f.timers {
		if x == ft {
			f.timers = append(f.timers[:i], f.timers[i+1:]...)
			return true
		}
	}
	return false
}

func (f *FakeClock) Timer(d time.Duration) (<-chan time.Time, func() bool) {
	ft := f.arm(d, 0)
	return ft.c, func() bool { return f.stop(ft) }
}

func (f *FakeClock) Ticker(d time.Duration) (<-chan time.Time, func()) {
	ft := f.arm(d, d)
	return ft.c, func() { f.stop(ft) }
}

// AwaitTimers blocks until n one-shot timers are armed.
func (f *FakeClock) AwaitTimers(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		armed := 0
		for _, ft := range f.timers {
			if ft.every == 0 {
				armed++
			}
		}
		if armed >= n {
			return
		}
		f.cond.Wait()
	}
}

// Advance moves the clock by d and fires every timer that comes due.
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	keep := f.timers[:0]
	for _, ft := range f.timers {
		if ft.at.After(f.now) {
			keep = append(keep, ft)
			continue
		}
		select {
		case ft.c <- f.now:
		default:
		}
		if ft.every > 0 {
			for !ft.at.After(f.now) {
				ft.at = ft.at.Add(ft.every)
			}
			keep = append(keep, ft)
		}
	}
	f.timers = keep
}
