package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// printHeader names the machine and the tree the numbers belong to.
func printHeader(w io.Writer, seed uint64, seconds float64) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	commit := "not a git checkout"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernels := "noasm"
	if hasAVX2() {
		kernels = "avx2+fma"
	}
	fmt.Fprintf(w, "# nproc %d · %s · %s · GOMAXPROCS %d · kernels %s · commit %s · seed %d · %.0f s per measurement\n",
		runtime.NumCPU(), model, runtime.Version(), runtime.GOMAXPROCS(0), kernels, commit, seed, seconds)
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMeasurement prints one measurement for a person: every metric by
// name and unit, the sample counts behind them and any failed check.
func printMeasurement(w io.Writer, m *measurement, res result) {
	fmt.Fprintf(w, "%s · seed %d · %d untraced + %d traced episodes of %d rounds", m.w.name, m.seed, len(m.episodes), len(m.tracedEp), m.w.rounds)
	if len(m.episodes) > 0 {
		ep := m.episodes[0]
		fmt.Fprintf(w, " · hash %s · round_ms over %d gaps per episode · target %.2f at round %d", ep.Hash, ep.Gaps, m.w.targetAcc, ep.RoundsToTarget)
	}
	fmt.Fprintln(w)
	for _, name := range sortedNames(res.Metrics) {
		v := res.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, p := range m.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// runAll is the command with no arguments: every workload, three untraced
// measurements interleaved across workloads and one traced, a table of
// medians with min and max, and bench/out/result.json.
func runAll(decl *benchmarkDecl, outDir string, seed uint64, seconds float64) error {
	const repeats = 3
	printHeader(os.Stdout, seed, seconds)
	type row struct {
		EndToEnd [][]float64 // per declared metric, one value per repeat
		PerLayer map[string]metric
		Hash     string
		Problems []string
	}
	rows := make(map[string]*row, len(workloads))
	for rep := 0; rep <= repeats; rep++ {
		for i := range workloads {
			w := &workloads[i]
			if rows[w.name] == nil {
				rows[w.name] = &row{EndToEnd: make([][]float64, len(decl.EndToEnd))}
			}
			r := rows[w.name]
			m := &measurement{w: w, seed: seed, seconds: seconds, traced: rep == repeats, outDir: outDir}
			m.run()
			res := m.result(decl)
			r.Problems = append(r.Problems, m.problems...)
			if m.traced {
				r.PerLayer = res.Metrics
				continue
			}
			for j, d := range decl.EndToEnd {
				r.EndToEnd[j] = append(r.EndToEnd[j], res.Metrics[d.Name].Value)
			}
			if len(m.episodes) > 0 {
				r.Hash = m.episodes[0].Hash
			}
		}
	}
	failed := false
	for i := range workloads {
		name := workloads[i].name
		r := rows[name]
		fmt.Printf("\n%s · hash %s\n  %-28s %14s %14s %14s  unit\n", name, r.Hash, "end to end", "median", "min", "max")
		for j, d := range decl.EndToEnd {
			v := append([]float64(nil), r.EndToEnd[j]...)
			sort.Float64s(v)
			if len(v) > 0 {
				fmt.Printf("  %-28s %14.6g %14.6g %14.6g  %s\n", d.Name, median(v), v[0], v[len(v)-1], d.Unit)
			}
		}
		fmt.Printf("  %-28s %14s\n", "per layer (traced run)", "value")
		for _, n := range sortedNames(r.PerLayer) {
			fmt.Printf("  %-28s %14.6g  %s\n", n, r.PerLayer[n].Value, r.PerLayer[n].Unit)
		}
		for _, p := range r.Problems {
			failed = true
			fmt.Printf("  CHECK FAILED: %s\n", p)
		}
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), map[string]any{"seed": seed, "seconds": seconds, "workloads": rows}); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("an output check failed")
	}
	return nil
}

// quartiles returns the first, second and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0], data[0]
	}
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// selfcheckRuns is the driver's own count: it compares two sets of ten runs.
const selfcheckRuns = 10

// runSelfcheck repeats the driver's acceptance test on one tree: two sets
// of selfcheckRuns measurements per workload, each on another seed. For every
// end-to-end metric it prints both medians, the spread (interquartile
// distance as a share of the median) and the bound; a metric whose spread
// exceeds its bound is unresolved, one whose second median is worse than
// the first by more than its bound differs. Either makes the exit non-zero.
func runSelfcheck(decl *benchmarkDecl, outDir string, seconds float64) error {
	printHeader(os.Stdout, 0, seconds)
	bad := 0
	var raw []*measurement // every episode of every run, for bench/out/selfcheck.json
	for i := range workloads {
		w := &workloads[i]
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for r := 0; r < selfcheckRuns; r++ {
				m := &measurement{w: w, seed: uint64(1 + s*selfcheckRuns + r), seconds: seconds, outDir: outDir}
				m.run()
				raw = append(raw, m)
				for _, p := range m.problems {
					bad++
					fmt.Printf("%s seed %d CHECK FAILED: %s\n", w.name, m.seed, p)
				}
				for name, v := range m.result(decl).Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Printf("\n%s\n  %-22s %12s %12s %8s %8s %8s %7s\n", w.name, "metric", "median 1", "median 2", "spread1", "spread2", "worse", "bound")
		for _, d := range decl.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			if len(a) == 0 || len(b) == 0 {
				bad++
				fmt.Printf("  %-22s missing\n", d.Name)
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			worse := (b2 - a2) / a2
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			switch {
			case (a3-a1)/a2 > d.Bound || (b3-b1)/b2 > d.Bound:
				verdict = "unresolved"
				bad++
			case worse > d.Bound:
				verdict = "differs"
				bad++
			}
			fmt.Printf("  %-22s %12.6g %12.6g %8.4f %8.4f %8.4f %7.3f %s\n", d.Name, a2, b2, (a3-a1)/a2, (b3-b1)/b2, worse, d.Bound, verdict)
		}
	}
	type rawRun struct {
		Workload string
		Seed     uint64
		Episodes []*episode
	}
	runsOut := make([]rawRun, len(raw))
	for i, m := range raw {
		runsOut[i] = rawRun{m.w.name, m.seed, m.episodes}
	}
	if err := writeJSON(filepath.Join(outDir, "selfcheck.json"), runsOut); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) unresolved, differing or failing a check", bad)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
