package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fl"
)

// tiny returns a copy of the named workload short enough for a smoke test:
// a handful of rounds and a target any model meets.
func tiny(t *testing.T, name string, rounds int) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.rounds, c.targetAcc = rounds, 0
	return &c
}

// inProcess makes a measurement run its episodes in this process.
func inProcess(m *measurement) {
	m.runEp = func(traced, local bool) (*episode, error) {
		return runEpisode(m.w, episodeOpts{seed: m.seed, rounds: m.w.rounds, traced: traced, local: local, epoch: time.Now(), outDir: m.outDir})
	}
}

// TestSmoke runs every workload at a tiny round count, untraced and
// traced, and checks the contract between the program and BENCHMARK.json:
// every declared metric is emitted under a legal name, the output checks
// pass (wire hash == in-process hash, three reconnects on the failover
// workload), and the span file nests and closes.
func TestSmoke(t *testing.T) {
	decl, _, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for i := range workloads {
		name := workloads[i].name
		if decl.Workloads[i].Name != name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the program %q", i, decl.Workloads[i].Name, name)
		}
		t.Run(name, func(t *testing.T) {
			m := &measurement{w: tiny(t, name, 8), seed: 1, traced: true, outDir: t.TempDir()}
			inProcess(m)
			m.run()
			for _, p := range m.problems {
				t.Errorf("check failed: %s", p)
			}
			if m.w.wire && (m.localEp == nil || m.localEp.Hash != m.episodes[0].Hash) {
				t.Errorf("wire run and in-process run disagree: %+v vs %s", m.localEp, m.episodes[0].Hash)
			}
			if m.w.severs && m.tracedEp[0].Reconnects != 3 {
				t.Errorf("failover workload recorded %d reconnects, want 3", m.tracedEp[0].Reconnects)
			}
			layer := m.result(decl)
			if !layer.Correct || layer.Failed != 0 || layer.Attempted < 1 {
				t.Errorf("traced result line: %+v", layer)
			}
			e2e := m.endToEnd()
			for _, set := range []struct {
				declared []metricDecl
				got      map[string]metric
			}{{decl.EndToEnd, e2e}, {decl.PerLayer, layer.Metrics}} {
				if len(set.got) != len(set.declared) {
					t.Errorf("%d metrics emitted, %d declared", len(set.got), len(set.declared))
				}
				for _, d := range set.declared {
					v, ok := set.got[d.Name]
					switch {
					case !legal.MatchString(d.Name):
						t.Errorf("illegal metric name %q", d.Name)
					case !ok:
						t.Errorf("metric %s declared but not emitted", d.Name)
					case v.Unit != d.Unit:
						t.Errorf("metric %s: unit %q, declared %q", d.Name, v.Unit, d.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s is %v", d.Name, v.Value)
					}
				}
			}
			for _, d := range decl.EndToEnd {
				if v := e2e[d.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s is %v; the driver needs it above zero", d.Name, v)
				}
			}
			checkTrace(t, filepath.Join(m.outDir, "trace-"+name+".jsonl"))
		})
	}
}

// checkTrace reads a span file back and checks its structure: every child
// lies inside its parent, and along the server's serial lane the self
// times, plus what concurrent children cover, add up to the run span.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 || spans[0].Name != "run" {
		t.Fatalf("%s: no run span", path)
	}
	byID := map[int]span{}
	laned := map[int][]int{} // serial parent → its concurrent children
	for i, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s) names parent %d before it exists", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End || s.End < s.Start {
			t.Errorf("span %s [%d,%d] leaves its parent %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Lane != p.Lane {
			laned[s.Parent] = append(laned[s.Parent], i)
		}
	}
	self := selfTimes(spans)
	var sum int64
	for i, s := range spans {
		if s.Lane != laneServer {
			continue
		}
		sum += self[i] + covered(spans, laned[s.ID], s.Start, s.End)
	}
	run := spans[0].End - spans[0].Start
	if diff := math.Abs(float64(sum-run)) / float64(run); diff > 0.01 {
		t.Errorf("self times sum to %d ns, the run span is %d ns (%.2f%% apart)", sum, run, 100*diff)
	}
}

// TestSeedChangesInputs: another seed must end on other parameters and
// still pass every check.
func TestSeedChangesInputs(t *testing.T) {
	var hashes []string
	for _, seed := range []uint64{1, 2} {
		m := &measurement{w: tiny(t, "sim_fmnist_taco", 3), seed: seed, outDir: t.TempDir()}
		inProcess(m)
		m.run()
		if len(m.problems) > 0 {
			t.Fatalf("seed %d: %v", seed, m.problems)
		}
		hashes = append(hashes, m.episodes[0].Hash)
	}
	if hashes[0] == hashes[1] {
		t.Fatalf("seeds 1 and 2 end on the same parameters %s", hashes[0])
	}
}

// TestDecoratorFidelity: the decorator answers the engine's three type
// questions exactly as the wrapped rule does and keeps its name.
func TestDecoratorFidelity(t *testing.T) {
	rules := []fl.Algorithm{
		baselines.NewFedAvg(), baselines.NewFedProx(0.1), baselines.NewFoolsGold(), baselines.NewScaffold(1),
		baselines.NewSTEM(0.2), baselines.NewFedACG(0.001), core.New(core.Recommended()),
	}
	for _, inner := range rules {
		d := decorate(inner, newRecorder(time.Now(), false, 1))
		if d.Name() != inner.Name() {
			t.Errorf("%s: decorated name %q", inner.Name(), d.Name())
		}
		_, iw := inner.(fl.WireSafe)
		_, dw := d.(fl.WireSafe)
		_, is := inner.(fl.StatefulAlgorithm)
		_, ds := d.(fl.StatefulAlgorithm)
		_, i64 := inner.(fl.RequiresF64Engine)
		_, d64 := d.(fl.RequiresF64Engine)
		if iw != dw || is != ds || i64 != d64 {
			t.Errorf("%s: WireSafe %v→%v, Stateful %v→%v, RequiresF64Engine %v→%v", inner.Name(), iw, dw, is, ds, i64, d64)
		}
	}
}

func hashOf(t *testing.T, res *fl.Result, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return paramHash(res.FinalParams)
}

// TestDecoratorTransparent: a decorated TACO run ends on the same
// parameters as an undecorated one, and still checkpoints — a run resumed
// from a mid-run checkpoint through the decorator's SaveState/LoadState
// ends there too. (That decorated FedAvg still serves is TestSmoke's wire
// workloads.)
func TestDecoratorTransparent(t *testing.T) {
	w := tiny(t, "sim_fmnist_taco", 6)
	in, err := w.build(w, 1, w.rounds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run(in.cfg, in.newAlg(), in.net, in.shards, in.test)
	plain := hashOf(t, res, err)

	cfg := in.cfg
	cfg.CheckpointEvery = 2
	var mid []byte
	cfg.OnCheckpoint = func(round int, data []byte) {
		if round == 4 {
			mid = append([]byte(nil), data...)
		}
	}
	rec := newRecorder(time.Now(), true, w.rounds)
	res, err = fl.Run(cfg, decorate(in.newAlg(), rec), in.net, in.shards, in.test)
	if got := hashOf(t, res, err); got != plain {
		t.Fatalf("decorated run ends on %s, undecorated on %s", got, plain)
	}
	if len(rec.aggEnd) != w.rounds || len(rec.hooks) == 0 {
		t.Fatalf("recorder saw %d aggregates and %d hooks", len(rec.aggEnd), len(rec.hooks))
	}
	if mid == nil {
		t.Fatal("no checkpoint at round 4")
	}
	res, err = fl.Resume(cfg, decorate(in.newAlg(), newRecorder(time.Now(), false, w.rounds)), in.net, in.shards, in.test, mid)
	if got := hashOf(t, res, err); got != plain {
		t.Fatalf("run resumed through the decorator ends on %s, want %s", got, plain)
	}
}
