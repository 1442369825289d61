package taco_test

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// trajectoryHeader is results/trajectory.tsv's first line: one row per
// (PR, workload, metric) paired claim or guard.
const trajectoryHeader = "pr\tworkload\tseed\tpairs\tmetric\tparent_q1\tparent_median\tparent_q3\tchange_q1\tchange_median\tchange_q3\twins\ttranscribed"

// TestTrajectoryWellFormed checks every row of results/trajectory.tsv
// against BENCHMARK.json: 13 tab-separated columns; a declared workload,
// optionally suffixed @GOMAXPROCS=k, and a declared metric; quartiles in
// order wherever they are given; wins of the form k/n with k ≤ n = pairs;
// and transcribed yes or no.
func TestTrajectoryWellFormed(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}

	raw, err = os.ReadFile("results/trajectory.tsv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if lines[0] != trajectoryHeader {
		t.Fatalf("header %q, want %q", lines[0], trajectoryHeader)
	}
	if len(lines) < 2 {
		t.Fatal("no rows")
	}
	suffix := regexp.MustCompile(`@GOMAXPROCS=[1-9][0-9]*$`)
	wins := regexp.MustCompile(`^([0-9]+)/([0-9]+)$`)
	for i, line := range lines[1:] {
		row := i + 2 // the file's line number
		f := strings.Split(line, "\t")
		if len(f) != 13 {
			t.Errorf("line %d: %d columns, want 13", row, len(f))
			continue
		}
		for _, c := range []struct{ name, v string }{{"pr", f[0]}, {"seed", f[2]}, {"pairs", f[3]}} {
			if n, err := strconv.Atoi(c.v); err != nil || n < 0 {
				t.Errorf("line %d: %s %q is not a non-negative integer", row, c.name, c.v)
			}
		}
		pairs, _ := strconv.Atoi(f[3])
		if w := suffix.ReplaceAllString(f[1], ""); !workloads[w] {
			t.Errorf("line %d: workload %q is not declared in BENCHMARK.json", row, f[1])
		}
		if !metrics[f[4]] {
			t.Errorf("line %d: metric %q is not declared in BENCHMARK.json", row, f[4])
		}
		for _, side := range []struct {
			name string
			q    []string
		}{{"parent", f[5:8]}, {"change", f[8:11]}} {
			var given []float64
			for _, v := range side.q {
				if v == "-" {
					continue
				}
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Errorf("line %d: %s quartile %q is not a number", row, side.name, v)
					continue
				}
				given = append(given, x)
			}
			if !slices.IsSorted(given) {
				t.Errorf("line %d: %s quartiles %v are out of order", row, side.name, side.q)
			}
		}
		if f[11] != "-" {
			m := wins.FindStringSubmatch(f[11])
			if m == nil {
				t.Errorf("line %d: wins %q is not k/n", row, f[11])
			} else if k, _ := strconv.Atoi(m[1]); m[2] != f[3] || k > pairs {
				t.Errorf("line %d: wins %q does not fit %s pairs", row, f[11], f[3])
			}
		}
		if f[12] != "yes" && f[12] != "no" {
			t.Errorf("line %d: transcribed %q, want yes or no", row, f[12])
		}
	}
}
