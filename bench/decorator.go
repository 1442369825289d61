package main

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fl"
	"repro/internal/simclock"
)

// recorder is the benchmark's view of one run, taken from outside the
// engine: the algorithm and connection decorators write into it and
// nothing under internal/ knows it exists. Every clock reading is
// nanoseconds since epoch, the moment this process started.
//
// An untraced run pays one clock read per Aggregate (into a preallocated
// slice) and one atomic load per LocalInit; a traced run also timestamps
// every hook call.
type recorder struct {
	base   time.Time // monotonic reference taken in this process
	offset int64     // nanoseconds from epoch to base
	traced bool

	// started flips at the first LocalInit: the end of set-up and the
	// start of the timed window.
	started atomic.Bool
	once    sync.Once
	startNs int64
	begin   procMarks

	aggEnd     []int64 // Aggregate return times, one per server step
	aggregated int64   // updates that reached Aggregate

	ckptBytes int
	ckptGaps  []int // index into aggEnd of the gap each checkpoint fell in

	// Traced runs only.
	mu       sync.Mutex
	hooks    []hookCall
	aggStart []int64
	alphas   []float64
}

// procMarks are the process counters read at both ends of the timed window.
type procMarks struct {
	cpuNs, mallocs, allocBytes, gcPauseNs uint64
}

type hookKind uint8

const (
	hookLocalInit hookKind = iota
	hookBeginLocal
	hookGradAdjust
	hookEndLocal
)

var hookNames = [...]string{"hook.LocalInit", "hook.BeginLocal", "hook.GradAdjust", "hook.EndLocal"}

type hookCall struct {
	kind       hookKind
	client     int32
	start, end int64
}

func newRecorder(epoch time.Time, traced bool, rounds int) *recorder {
	base := time.Now()
	r := &recorder{base: base, offset: int64(base.Sub(epoch)), traced: traced, aggEnd: make([]int64, 0, rounds+1)}
	if traced {
		r.aggStart = make([]int64, 0, rounds+1)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) + r.offset }

func readProcMarks() procMarks {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procMarks{
		cpuNs:      uint64(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

func (r *recorder) localInit() {
	if !r.started.Load() {
		r.once.Do(func() {
			r.begin = readProcMarks()
			r.startNs = r.now()
			r.started.Store(true)
		})
	}
}

func (r *recorder) hook(kind hookKind, client int, start int64) {
	end := r.now()
	r.mu.Lock()
	r.hooks = append(r.hooks, hookCall{kind: kind, client: int32(client), start: start, end: end})
	r.mu.Unlock()
}

// onCheckpoint is the discarding Config.OnCheckpoint of the checkpointing
// workload: it keeps the size and which round gap paid for the encode.
func (r *recorder) onCheckpoint(_ int, data []byte) {
	r.ckptBytes = len(data)
	r.ckptGaps = append(r.ckptGaps, len(r.aggEnd))
}

// decorated forwards every Algorithm hook to the wrapped rule and reports
// to the recorder. Name is forwarded unchanged: it feeds the Hello
// fingerprint and checkpoint headers.
type decorated struct {
	inner fl.Algorithm
	rec   *recorder
}

func (d *decorated) Name() string                     { return d.inner.Name() }
func (d *decorated) Setup(env *fl.Env)                { d.inner.Setup(env) }
func (d *decorated) Costs() simclock.Costs            { return d.inner.Costs() }
func (d *decorated) FinalModel(w []float64) []float64 { return d.inner.FinalModel(w) }
func (d *decorated) MeanAlpha() float64               { return d.inner.MeanAlpha() }

func (d *decorated) LocalInit(client, round int, w, out []float64) {
	d.rec.localInit()
	if !d.rec.traced {
		d.inner.LocalInit(client, round, w, out)
		return
	}
	t := d.rec.now()
	d.inner.LocalInit(client, round, w, out)
	d.rec.hook(hookLocalInit, client, t)
}

func (d *decorated) BeginLocal(client, round int, w0 []float64) {
	if !d.rec.traced {
		d.inner.BeginLocal(client, round, w0)
		return
	}
	t := d.rec.now()
	d.inner.BeginLocal(client, round, w0)
	d.rec.hook(hookBeginLocal, client, t)
}

func (d *decorated) GradAdjust(ctx *fl.StepCtx) {
	if !d.rec.traced {
		d.inner.GradAdjust(ctx)
		return
	}
	t := d.rec.now()
	d.inner.GradAdjust(ctx)
	d.rec.hook(hookGradAdjust, ctx.Client, t)
}

func (d *decorated) EndLocal(client, round int, delta []float64) {
	if !d.rec.traced {
		d.inner.EndLocal(client, round, delta)
		return
	}
	t := d.rec.now()
	d.inner.EndLocal(client, round, delta)
	d.rec.hook(hookEndLocal, client, t)
}

// Aggregate runs on the scheduler goroutine only, so the untraced path
// appends without a lock.
func (d *decorated) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	r := d.rec
	if r.traced {
		r.aggStart = append(r.aggStart, r.now())
	}
	d.inner.Aggregate(s, updates)
	r.aggregated += int64(len(updates))
	r.aggEnd = append(r.aggEnd, r.now())
	if r.traced {
		r.alphas = append(r.alphas, d.inner.MeanAlpha())
	}
}

// The engine asks three questions of an algorithm by type assertion:
// may it be served over the wire, does it carry checkpoint state, does it
// need the float64 engine. The mix-ins below let decorate answer each
// exactly as the wrapped rule does.
type wireSafe struct{}

func (wireSafe) WireSafe() {}

type needsF64 struct{}

func (needsF64) RequiresF64Engine() {}

type stateful struct{ sa fl.StatefulAlgorithm }

func (s stateful) SaveState(w io.Writer) error { return s.sa.SaveState(w) }
func (s stateful) LoadState(r io.Reader) error { return s.sa.LoadState(r) }

// decorate wraps inner so the recorder sees its hooks.
func decorate(inner fl.Algorithm, rec *recorder) fl.Algorithm {
	d := &decorated{inner: inner, rec: rec}
	_, ws := inner.(fl.WireSafe)
	_, f64 := inner.(fl.RequiresF64Engine)
	sa, st := inner.(fl.StatefulAlgorithm)
	s := stateful{sa}
	switch {
	case ws && st && f64:
		return struct {
			*decorated
			wireSafe
			stateful
			needsF64
		}{d, wireSafe{}, s, needsF64{}}
	case ws && st:
		return struct {
			*decorated
			wireSafe
			stateful
		}{d, wireSafe{}, s}
	case ws && f64:
		return struct {
			*decorated
			wireSafe
			needsF64
		}{d, wireSafe{}, needsF64{}}
	case st && f64:
		return struct {
			*decorated
			stateful
			needsF64
		}{d, s, needsF64{}}
	case ws:
		return struct {
			*decorated
			wireSafe
		}{d, wireSafe{}}
	case st:
		return struct {
			*decorated
			stateful
		}{d, s}
	case f64:
		return struct {
			*decorated
			needsF64
		}{d, needsF64{}}
	}
	return d
}
