package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// episode is what one child process reports: one set-up and one fixed-
// length run of a workload, measured from outside. The parent takes
// medians over the episodes of a measurement.
type episode struct {
	Workload string
	Seed     uint64
	Rounds   int
	Traced   bool
	Local    bool   // a wire workload run through fl.Run for comparison
	Hash     string // FNV-1a over the final parameters' bits

	SetupS  float64
	WallS   float64 // the timed window: first LocalInit → Run/Serve return
	Commits int     // rounds committed and not Degraded
	Updates int64   // client updates that reached Aggregate
	Gaps    int     // sample count behind the round_ms percentiles

	RoundMsP50, RoundMsP95, RoundMsMax float64

	RoundsToTarget int // 0: never reached
	TimeToTargetS  float64
	FinalAcc       float64
	BestAcc        float64

	UplinkBytes    int64
	WireBytes      int64 // through the server's sockets, both directions; 0 in process
	CPUS           float64
	Mallocs        uint64
	AllocBytes     uint64
	GCPauseMs      float64
	PeakRSSMB      float64
	DeliveredShare float64

	Retries, DroppedUpdates, DupUpdates, Degraded int
	Zeroed, Clipped, Reconnects, Reassigned       int
	MeanStaleness, MeanAlpha                      float64
	CkptBytes                                     int
	CkptExtraMs                                   float64
	RecoveryMs                                    []float64
	RecoveryRounds                                []int

	// Layer holds the traced run's per-layer numbers (nil when untraced).
	Layer map[string]float64 `json:",omitempty"`
}

type episodeOpts struct {
	seed   uint64
	rounds int
	traced bool
	local  bool
	epoch  time.Time // when this process started: time zero of every clock reading
	outDir string    // where a traced run writes its span file
}

// incident is one worker loss the bench injected.
type incident struct {
	round int
	atNs  int64
}

// workerSide is what the decorator on a worker's end of the socket keeps.
type workerSide struct {
	stats     connStats
	busyStart int64
	busyNs    int64
	// Sever schedule (worker 1 of the failover workload only).
	severAt   []int
	incidents []incident
	severed   bool
}

func (ws *workerSide) frameIn(typ wire.FrameType, head []byte, end int64) bool {
	if typ != wire.FrameDispatch {
		return false
	}
	ws.busyStart = end
	if len(ws.severAt) == 0 {
		return false
	}
	round, n := binary.Uvarint(head)
	if n <= 0 || int(round) != ws.severAt[0] {
		return false
	}
	ws.severAt = ws.severAt[1:]
	ws.incidents = append(ws.incidents, incident{round: int(round), atNs: end})
	ws.severed = true
	return true
}

func (ws *workerSide) frameOut(typ wire.FrameType, end int64) {
	if typ == wire.FrameUpdates && ws.busyStart > 0 {
		ws.busyNs += end - ws.busyStart
		ws.busyStart = 0
	}
}

// severRounds are the rounds after whose Dispatch worker 1 is cut:
// ⌈T/4⌉, ⌈T/2⌉, ⌈3T/4⌉.
func severRounds(rounds int) []int {
	return []int{(rounds + 3) / 4, (rounds + 1) / 2, (3*rounds + 3) / 4}
}

// serveLoopback runs the instance through fl.Serve on 127.0.0.1 with two
// in-process workers of Parallelism 1, every connection decorated.
func serveLoopback(w *workload, in *instance, rec *recorder, server *connStats, sides []*workerSide) (*fl.Result, error) {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ln := &countingListener{TCPListener: tcp.(*net.TCPListener), stats: server}
	defer ln.Close()
	addr := tcp.Addr().String()

	wcfg := in.cfg
	wcfg.Parallelism = 1
	wcfg.OnCheckpoint = nil
	var wg sync.WaitGroup
	errs := make([]error, wireWorkers)
	for i := 0; i < wireWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			side := sides[i]
			for attach := 0; ; attach++ {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					errs[i] = err
					return
				}
				cc := &countingConn{Conn: c, stats: &side.stats, lane: i}
				if rec.traced || len(side.severAt) > 0 {
					cc.scanIn, cc.onFrameIn = &frameScanner{}, side.frameIn
				}
				if rec.traced {
					cc.scanOut, cc.onFrameOut = &frameScanner{}, side.frameOut
				}
				side.severed = false
				err = fl.RunWorkerOpts(cc, fl.WorkerOptions{Index: i, Workers: wireWorkers, Attach: attach},
					wcfg, decorate(in.newAlg(), rec), in.net, in.shards, in.test.Name)
				side.stats.mu.Lock()
				severed := side.severed
				side.stats.mu.Unlock()
				if err != nil && severed {
					continue // the loss was ours: re-dial at once with the next Attach
				}
				errs[i] = err
				return
			}
		}(i)
	}
	opt := fl.ServeOptions{Workers: wireWorkers, HeartbeatSec: -1}
	if w.severs {
		opt.FailoverGraceSec = 30
	}
	res, err := fl.Serve(ln, opt, in.cfg, decorate(in.newAlg(), rec), in.net, in.shards, in.test)
	ln.Close()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("worker %d: %w", i, e)
		}
	}
	return res, nil
}

// runEpisode builds the workload from the seed, runs it once and measures
// it. It runs in a child process of its own so that set-up, peak memory
// and allocator state start from nothing every time.
func runEpisode(w *workload, o episodeOpts) (*episode, error) {
	in, err := w.build(w, o.seed, o.rounds)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(o.epoch, o.traced, o.rounds)
	if in.cfg.CheckpointEvery > 0 {
		in.cfg.OnCheckpoint = rec.onCheckpoint
	}
	ep := &episode{Workload: w.name, Seed: o.seed, Rounds: o.rounds, Traced: o.traced, Local: o.local}

	server := &connStats{rec: rec}
	sides := make([]*workerSide, wireWorkers)
	for i := range sides {
		sides[i] = &workerSide{stats: connStats{rec: rec}}
	}
	if w.severs && !o.local {
		sides[1].severAt = severRounds(o.rounds)
	}
	var res *fl.Result
	if w.wire && !o.local {
		res, err = serveLoopback(w, in, rec, server, sides)
	} else {
		res, err = fl.Run(in.cfg, decorate(in.newAlg(), rec), in.net, in.shards, in.test)
	}
	endNs := rec.now()
	end := readProcMarks()
	if err != nil {
		return nil, err
	}
	run := res.Run
	if len(rec.aggEnd) != len(run.Rounds) {
		return nil, fmt.Errorf("%d Aggregate calls for %d committed rounds", len(rec.aggEnd), len(run.Rounds))
	}
	if run.HaltReason != "" {
		return nil, fmt.Errorf("run halted at round %d: %s", run.HaltRound, run.HaltReason)
	}

	ep.Hash = paramHash(res.FinalParams)

	rounds := float64(len(run.Rounds))
	ep.SetupS = float64(rec.startNs) / 1e9
	ep.WallS = float64(endNs-rec.startNs) / 1e9
	ep.Updates = rec.aggregated
	gaps := make([]float64, 0, len(rec.aggEnd))
	prev := rec.startNs
	for i, t := range rec.aggEnd {
		if i > 0 { // the first gap has no eval or bookkeeping of a previous round in it
			gaps = append(gaps, float64(t-prev)/1e6)
		}
		prev = t
	}
	sorted := append([]float64(nil), gaps...)
	sort.Float64s(sorted)
	ep.Gaps = len(sorted)
	ep.RoundMsP50, ep.RoundMsP95, ep.RoundMsMax = quantile(sorted, 0.5), quantile(sorted, 0.95), quantile(sorted, 1)

	if r, ok := run.RoundsToAccuracy(w.targetAcc); ok {
		ep.RoundsToTarget = r
		ep.TimeToTargetS = float64(rec.aggEnd[r-1]-rec.startNs) / 1e9
	}
	// The final model's own accuracy is one draw from a curve that still
	// swings by several points under async noise; the median over the
	// last third of the rounds is the level the run ended on.
	tail := run.Rounds[len(run.Rounds)-max(len(run.Rounds)/3, 1):]
	acc := make([]float64, len(tail))
	for i, r := range tail {
		acc[i] = r.Accuracy
	}
	ep.FinalAcc = median(acc)
	ep.BestAcc = run.BestAccuracy()

	ep.UplinkBytes = run.TotalUplinkBytes()
	ep.WireBytes = server.bytesRead.Load() + server.bytesWritten.Load()
	ep.CPUS = float64(end.cpuNs-rec.begin.cpuNs) / 1e9
	ep.Mallocs = end.mallocs - rec.begin.mallocs
	ep.AllocBytes = end.allocBytes - rec.begin.allocBytes
	ep.GCPauseMs = float64(end.gcPauseNs-rec.begin.gcPauseNs) / 1e6

	ep.Retries, ep.DroppedUpdates, ep.DupUpdates = run.TotalRetries(), run.TotalDroppedUpdates(), run.TotalDupUpdates()
	ep.Degraded = run.DegradedRounds()
	ep.Zeroed, ep.Clipped = run.TotalZeroedUpdates(), run.TotalClippedUpdates()
	ep.Reconnects, ep.Reassigned = run.TotalWorkerReconnects(), run.TotalReassignedDispatches()
	for _, r := range run.Rounds {
		ep.MeanStaleness += r.MeanStaleness / rounds
		ep.MeanAlpha += r.MeanAlpha / rounds
	}
	ep.Commits = len(run.Rounds) - ep.Degraded
	// Updates the stack zeroed were delivered and judged; updates whose
	// retry budget ran out, and the cohorts of rounds that never ran, were
	// not.
	delivered := float64(rec.aggregated + int64(ep.Zeroed))
	missing := float64(ep.DroppedUpdates + (o.rounds-len(run.Rounds))*in.cohort)
	ep.DeliveredShare = delivered / (delivered + missing)

	ep.CkptBytes = rec.ckptBytes
	ep.CkptExtraMs = checkpointExtra(gaps, rec.ckptGaps)
	for _, inc := range sides[1].incidents {
		next := sort.Search(len(rec.aggEnd), func(i int) bool { return rec.aggEnd[i] > inc.atNs })
		if next < len(rec.aggEnd) {
			ep.RecoveryMs = append(ep.RecoveryMs, float64(rec.aggEnd[next]-inc.atNs)/1e6-ep.RoundMsP50)
			ep.RecoveryRounds = append(ep.RecoveryRounds, inc.round)
		}
	}

	if o.traced {
		spans := buildSpans(rec, server, endNs)
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeTrace(filepath.Join(o.outDir, "trace-"+w.name+".jsonl"), spans); err != nil {
			return nil, err
		}
		ep.Layer, err = layerMetrics(w, in, ep, run, rec, server, sides, spans, endNs)
		if err != nil {
			return nil, err
		}
	}
	ep.PeakRSSMB = peakRSSMB()
	return ep, nil
}

// paramHash is the FNV-1a hash of a parameter vector's bits.
func paramHash(params []float64) string {
	h := fnv.New64a()
	var b8 [8]byte
	for _, v := range params {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		h.Write(b8[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// quantile reads the q-quantile of an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(x []float64) float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// checkpointExtra is the median gap of the rounds that encoded a
// checkpoint minus the median gap of the others. gaps[i] ends at
// Aggregate i+1; ckpt holds the Aggregate index each checkpoint preceded.
func checkpointExtra(gaps []float64, ckpt []int) float64 {
	with := map[int]bool{}
	for _, a := range ckpt {
		with[a-1] = true
	}
	var yes, no []float64
	for i, g := range gaps {
		if with[i] {
			yes = append(yes, g)
		} else {
			no = append(no, g)
		}
	}
	if len(yes) == 0 || len(no) == 0 {
		return 0
	}
	return median(yes) - median(no)
}

// peakRSSMB reads this process's high-water resident set from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// layerMetrics derives the per-layer ledger of a traced episode from its
// spans, counters and the direct layer probes.
func layerMetrics(w *workload, in *instance, ep *episode, run *metrics.Run, rec *recorder, server *connStats, sides []*workerSide, spans []span, endNs int64) (map[string]float64, error) {
	m, err := probeLayers(w, in)
	if err != nil {
		return nil, err
	}
	rounds := float64(len(run.Rounds))
	cohort, k := float64(in.cohort), float64(in.cfg.LocalSteps)
	par := float64(in.cfg.Parallelism)
	if w.wire && !ep.Local {
		par = wireWorkers // Parallelism 1 each
	}
	perMs := func(us float64) float64 { return cohort * us / par / 1e3 } // per-update µs → critical-path ms per round

	// core: the algorithm's hooks, from the decorator's spans.
	var hookNs [4]int64
	var hookN [4]int64
	for _, hc := range rec.hooks {
		hookNs[hc.kind] += hc.end - hc.start
		hookN[hc.kind]++
	}
	agg := make([]float64, len(rec.aggEnd))
	for i := range agg {
		agg[i] = float64(rec.aggEnd[i]-rec.aggStart[i]) / 1e6
	}
	sort.Float64s(agg)
	m["core.aggregate_ms_p50"] = quantile(agg, 0.5)
	m["core.aggregate_share"] = m["core.aggregate_ms_p50"] / ep.RoundMsP50
	m["core.grad_adjust_us"] = float64(hookNs[hookGradAdjust]) / float64(max(hookN[hookGradAdjust], 1)) / 1e3
	m["core.local_hooks_us"] = float64(hookNs[hookLocalInit]+hookNs[hookBeginLocal]+hookNs[hookEndLocal]) / float64(max(hookN[hookLocalInit], 1)) / 1e3
	m["core.mean_alpha"] = median(rec.alphas)
	m["core.rounds_to_target"] = float64(ep.RoundsToTarget)

	m["nn.train_share"] = perMs(k*m["nn.grad_eval_us"]) / ep.RoundMsP50
	m["nn.eval_share"] = m["nn.eval_ms"] / ep.RoundMsP50

	// wire: counters of the server-side connection decorators.
	m["wire.mb_per_round"] = float64(ep.WireBytes) / 1e6 / rounds
	m["wire.up_bytes_per_update"], m["wire.down_bytes_per_round"], m["wire.frames_per_round"] = 0, 0, 0
	m["wire.server_read_wait_ms"], m["wire.server_write_ms"] = 0, 0
	if w.wire && !ep.Local {
		m["wire.up_bytes_per_update"] = float64(server.bytesRead.Load()) / float64(ep.Updates)
		m["wire.down_bytes_per_round"] = float64(server.dispatch) / rounds
		m["wire.frames_per_round"] = float64(server.frames) / rounds
		m["wire.server_read_wait_ms"] = float64(server.readNs) / 1e6 / rounds / wireWorkers
		m["wire.server_write_ms"] = float64(server.writeNs) / 1e6 / rounds
	}

	m["aggstack.zeroed"], m["aggstack.clipped"] = float64(ep.Zeroed), float64(ep.Clipped)

	// fl: the scheduler and pool, the remainder after every term above
	// that sits on the round's critical path.
	var post []float64
	for _, s := range spans {
		if s.Name == "post" && s.Round+1 < len(run.Rounds) {
			post = append(post, float64(s.End-s.Start)/1e6)
		}
	}
	m["fl.round_ms_p95"], m["fl.round_ms_max"] = ep.RoundMsP95, ep.RoundMsMax
	m["fl.post_aggregate_ms"] = median(post)
	accounted := perMs(k*(m["nn.grad_eval_us"]+m["core.grad_adjust_us"]+m["dataset.sample_batch_us"])+m["core.local_hooks_us"]+m["compress.encode_us"]) +
		m["core.aggregate_ms_p50"] + m["nn.eval_ms"]
	if w.wire && !ep.Local {
		accounted += perMs(m["wire.marshal_us"]+m["wire.unmarshal_us"]+m["compress.decode_us"]) + m["wire.server_write_ms"]
	}
	m["fl.overhead_ms"] = ep.RoundMsP50 - accounted
	m["fl.unaccounted_share"] = m["fl.overhead_ms"] / ep.RoundMsP50
	m["fl.ns_per_fleet_client"] = m["fl.overhead_ms"] * 1e6 / float64(len(in.shards))
	m["fl.gc_pause_ms_per_round"] = ep.GCPauseMs / rounds
	m["fl.retries"], m["fl.dropped_updates"], m["fl.dup_updates"] = float64(ep.Retries), float64(ep.DroppedUpdates), float64(ep.DupUpdates)
	m["fl.degraded_rounds"], m["fl.mean_staleness"] = float64(ep.Degraded), ep.MeanStaleness

	// fl.serve, fl.worker
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("fl.serve.recovery_ms_%d", i+1)
		m[name] = 0
		if i < len(ep.RecoveryMs) {
			m[name] = ep.RecoveryMs[i]
		}
	}
	m["fl.serve.recovery_slope"] = slope(ep.RecoveryRounds, ep.RecoveryMs)
	m["fl.serve.reconnects"], m["fl.serve.reassigned"] = float64(ep.Reconnects), float64(ep.Reassigned)
	m["fl.worker.busy_share"], m["fl.worker.skew"] = 0, 0
	if w.wire && !ep.Local {
		wall := float64(endNs - rec.startNs)
		lo, hi := float64(sides[0].busyNs)/wall, float64(sides[1].busyNs)/wall
		if lo > hi {
			lo, hi = hi, lo
		}
		m["fl.worker.busy_share"] = (lo + hi) / 2
		if lo > 0 {
			m["fl.worker.skew"] = hi / lo
		}
	}

	m["ckpt.bytes"], m["ckpt.round_extra_ms"] = float64(ep.CkptBytes), ep.CkptExtraMs
	m["proc.nproc"], m["proc.gomaxprocs"] = float64(runtime.NumCPU()), float64(runtime.GOMAXPROCS(0))
	m["proc.avx2"] = 0
	if hasAVX2() {
		m["proc.avx2"] = 1
	}
	return m, nil
}

// slope is the least-squares slope of y over x (0 with fewer than two
// points).
func slope(x []int, y []float64) float64 {
	n := float64(len(x))
	if len(x) < 2 || len(x) != len(y) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		xf := float64(x[i])
		sx, sy, sxx, sxy = sx+xf, sy+y[i], sxx+xf*xf, sxy+xf*y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// hasAVX2 reports whether the kernels' AVX2+FMA path can be live: an
// amd64 build on a CPU that lists both flags.
func hasAVX2() bool {
	if runtime.GOARCH != "amd64" {
		return false
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "flags") {
			f := " " + line + " "
			return strings.Contains(f, " avx2 ") && strings.Contains(f, " fma ")
		}
	}
	return false
}
