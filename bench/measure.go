package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a measurement prints: the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measurement is one benchmark run as the driver asks for it: one
// workload, one seed, episodes back to back until the timed windows add up
// to the requested seconds.
type measurement struct {
	w       *workload
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
	// runEp runs one episode; nil means a fresh child process (tests run
	// episodes in process instead).
	runEp func(traced, local bool) (*episode, error)

	episodes []*episode // untraced, served (or in-process for sim workloads)
	tracedEp []*episode
	localEp  *episode // wire workloads, traced measurement only
	problems []string
	spawned  int // episodes started, finished or not
	failed   int // rounds that did not commit cleanly, or belong to an episode that failed
}

// episodeTimeout bounds one child; a whole measurement must end within
// the driver's 180 s.
const episodeTimeout = 100 * time.Second

// spawn runs one episode in a fresh child process of this binary, one at
// a time, and decodes the JSON it prints.
func (m *measurement) spawn(traced, local bool) (*episode, error) {
	if m.runEp != nil {
		return m.runEp(traced, local)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), episodeTimeout)
	defer cancel()
	args := []string{"-one", m.w.name, "-seed", strconv.FormatUint(m.seed, 10), "-out", m.outDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	if local {
		args = append(args, "-local")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("episode of %s: %w", m.w.name, err)
	}
	ep := new(episode)
	if err := json.Unmarshal(out.Bytes(), ep); err != nil {
		return nil, fmt.Errorf("episode of %s: decoding its report: %w", m.w.name, err)
	}
	return ep, nil
}

func (m *measurement) problem(format string, a ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, a...))
}

// run executes the measurement. Untraced: episodes until their timed
// windows reach the requested seconds. Traced: untraced and traced
// episodes alternate (their difference is the tracing overhead) for the
// same time, and a wire workload also runs once in process for the wire
// tax and the hash comparison.
func (m *measurement) run() {
	var timed float64
	for n := 0; timed < m.seconds || n < 2; n++ {
		traced := m.traced && n%2 == 1
		m.spawned++
		ep, err := m.spawn(traced, false)
		if err != nil {
			m.problem("%v", err)
			m.failed += m.w.rounds
			timed += m.seconds / 4 // a failing episode still spends the budget
			continue
		}
		timed += ep.WallS
		if traced {
			m.tracedEp = append(m.tracedEp, ep)
		} else {
			m.episodes = append(m.episodes, ep)
		}
	}
	if m.traced && m.w.wire {
		ep, err := m.spawn(false, true)
		if err != nil {
			m.problem("%v", err)
		}
		m.localEp = ep
	}
	m.check()
}

// check applies the output checks: the same seed ends on the same
// parameters every time, over the wire as in process; every run reaches
// its target accuracy; the failover workload loses its worker exactly
// three times and never commits a round below quorum.
func (m *measurement) check() {
	all := append(append([]*episode(nil), m.episodes...), m.tracedEp...)
	if len(all) == 0 {
		m.problem("no episode finished")
		return
	}
	if m.localEp != nil {
		all = append(all, m.localEp)
	}
	for _, ep := range all {
		if ep.Hash != all[0].Hash {
			m.problem("final parameters differ between runs of seed %d: %s vs %s", m.seed, ep.Hash, all[0].Hash)
		}
		switch {
		case ep.RoundsToTarget == 0:
			m.problem("target accuracy %.2f never reached (best %.4f)", m.w.targetAcc, ep.BestAcc)
			m.failed += ep.Rounds
		case ep.Commits != ep.Rounds:
			m.problem("%d of %d rounds committed cleanly", ep.Commits, ep.Rounds)
			m.failed += ep.Rounds - ep.Commits
		}
		if m.w.severs && !ep.Local && (ep.Reconnects != 3 || ep.Degraded != 0) {
			m.problem("failover run recorded %d reconnects and %d degraded rounds, want 3 and 0", ep.Reconnects, ep.Degraded)
		}
	}
}

func medianOf(eps []*episode, f func(*episode) float64) float64 {
	v := make([]float64, len(eps))
	for i, ep := range eps {
		v[i] = f(ep)
	}
	return median(v)
}

// endToEnd returns the twelve end-to-end metrics: each the median over the
// untraced episodes. How many episodes fit into the requested seconds
// depends on how fast the tree is, and a median does not drift with the
// number of draws behind it.
func (m *measurement) endToEnd() map[string]metric {
	med := func(unit string, f func(*episode) float64) metric { return metric{medianOf(m.episodes, f), unit} }
	perRound := func(v func(*episode) float64) func(*episode) float64 {
		return func(e *episode) float64 { return v(e) / float64(e.Rounds) }
	}
	return map[string]metric{
		"setup_s":             med("s", func(e *episode) float64 { return e.SetupS }),
		"rounds_per_s":        med("1/s", func(e *episode) float64 { return float64(e.Rounds) / e.WallS }),
		"updates_per_s":       med("1/s", func(e *episode) float64 { return float64(e.Updates) / e.WallS }),
		"round_ms_p50":        med("ms", func(e *episode) float64 { return e.RoundMsP50 }),
		"time_to_target_s":    med("s", func(e *episode) float64 { return e.TimeToTargetS }),
		"final_acc":           med("fraction", func(e *episode) float64 { return e.FinalAcc }),
		"uplink_mb_per_round": med("MB", perRound(func(e *episode) float64 { return float64(e.UplinkBytes) / 1e6 })),
		"cpu_s_per_round":     med("s", perRound(func(e *episode) float64 { return e.CPUS })),
		"allocs_per_round":    med("count", perRound(func(e *episode) float64 { return float64(e.Mallocs) })),
		"alloc_mb_per_round":  med("MB", perRound(func(e *episode) float64 { return float64(e.AllocBytes) / 1e6 })),
		"peak_rss_mb":         med("MB", func(e *episode) float64 { return e.PeakRSSMB }),
		"delivered_share":     med("fraction", func(e *episode) float64 { return e.DeliveredShare }),
	}
}

// perLayer returns the per-layer ledger: medians over the traced episodes,
// plus the two numbers that compare runs.
func (m *measurement) perLayer(declared []metricDecl) map[string]metric {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		out[d.Name] = metric{medianOf(m.tracedEp, func(e *episode) float64 { return e.Layer[d.Name] }), d.Unit}
	}
	untraced := medianOf(m.episodes, func(e *episode) float64 { return e.RoundMsP50 })
	traced := medianOf(m.tracedEp, func(e *episode) float64 { return e.RoundMsP50 })
	if untraced > 0 {
		out["trace.overhead_share"] = metric{traced/untraced - 1, "fraction"}
	}
	if m.localEp != nil && m.localEp.WallS > 0 {
		out["fl.serve.wire_tax"] = metric{medianOf(m.episodes, func(e *episode) float64 { return e.WallS }) / m.localEp.WallS, "ratio"}
	}
	return out
}

// result assembles the driver's last line.
func (m *measurement) result(decl *benchmarkDecl) result {
	res := result{Correct: len(m.problems) == 0, Attempted: m.spawned * m.w.rounds, Failed: m.failed}
	switch {
	case len(m.episodes) == 0 || (m.traced && len(m.tracedEp) == 0):
		res.Correct = false
		res.Metrics = map[string]metric{}
	case m.traced:
		res.Metrics = m.perLayer(decl.PerLayer)
	default:
		res.Metrics = m.endToEnd()
	}
	return res
}
