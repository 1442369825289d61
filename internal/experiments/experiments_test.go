package experiments

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// render runs experiment id and returns what flsim writes to
// results/<id>.txt: every artifact followed by a blank line.
func render(t *testing.T, id string, r *Runner) string {
	t.Helper()
	arts, err := Run(id, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) == 0 {
		t.Fatal("no artifact")
	}
	var sb strings.Builder
	for _, a := range arts {
		a.Render(&sb)
		sb.WriteString("\n")
	}
	return sb.String()
}

// labels lists an axis's level labels.
func labels(a Axis) []string {
	out := make([]string, len(a))
	for i, l := range a {
		out[i] = l.Label
	}
	return out
}

func TestProfilesForAllDatasets(t *testing.T) {
	for _, name := range append(SweepDatasets(), "mnist", "femnist") {
		for _, scale := range []Scale{ScaleQuick, ScaleFull} {
			p, err := ProfileFor(name, scale)
			if err != nil {
				t.Fatalf("ProfileFor(%s,%v): %v", name, scale, err)
			}
			if p.Rounds <= 0 || p.LocalSteps <= 0 || p.LocalLR <= 0 {
				t.Fatalf("profile %s has zero fields: %+v", name, p)
			}
			if p.TargetAcc <= 0 || p.TargetAcc >= 1 {
				t.Fatalf("profile %s target accuracy %v", name, p.TargetAcc)
			}
		}
	}
	if _, err := ProfileFor("nope", ScaleQuick); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestFullScaleIsBigger(t *testing.T) {
	q, _ := ProfileFor("fmnist", ScaleQuick)
	f, _ := ProfileFor("fmnist", ScaleFull)
	if f.Rounds <= q.Rounds {
		t.Fatalf("full rounds %d not above quick %d", f.Rounds, q.Rounds)
	}
}

func TestProfileMaterialize(t *testing.T) {
	for _, name := range []string{"adult", "fmnist", "shakespeare"} {
		p, err := ProfileFor(name, ScaleQuick)
		if err != nil {
			t.Fatal(err)
		}
		cfg, shards, test, groupOf, err := p.Materialize(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(shards) != p.Clients {
			t.Fatalf("%s: %d shards, want %d", name, len(shards), p.Clients)
		}
		if test.Len() == 0 {
			t.Fatalf("%s: empty test set", name)
		}
		if cfg.Rounds != p.Rounds {
			t.Fatalf("%s: config rounds %d != profile %d", name, cfg.Rounds, p.Rounds)
		}
		if p.Partition == PartGroups && len(groupOf) != p.Clients {
			t.Fatalf("%s: groupOf length %d", name, len(groupOf))
		}
	}
}

func TestNewAlgorithmNames(t *testing.T) {
	for _, name := range append(AlgorithmNames(), "FedProx(TACO)", "Scaffold(TACO)") {
		alg, err := NewAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		if alg.Name() != name {
			t.Fatalf("NewAlgorithm(%q).Name() = %q", name, alg.Name())
		}
	}
	if _, err := NewAlgorithm("nope"); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner(ScaleQuick)
	g := &Grid{ID: "cache-test", Mutate: func(s *Setup) {
		s.Profile.Rounds, s.Profile.LocalSteps, s.Profile.BatchSize = 2, 2, 8
	}}
	point := []Level{{Data: "adult", Method: "FedAvg"}}
	a, err := r.cell(g, point)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.cell(g, point)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result != b.Result {
		t.Fatal("identical keys must return the cached result")
	}
	if a.Run.Rounds[len(a.Run.Rounds)-1].Index != 1 {
		t.Fatal("Mutate's round budget did not reach the run")
	}
}

func TestRegistryIDs(t *testing.T) {
	ids := IDs()
	want := []string{"compression", "faults", "fedopt", "fig2", "fig4", "fig5", "fig6", "fig7", "robustness", "scale100k", "scale1k", "straggler", "table1", "table2", "table3", "table5", "table6", "table7", "table8"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Fatalf("IDs() = %v, want %v", ids, want)
	}
	if _, err := Run("nope", NewRunner(ScaleQuick)); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

// TestArtifactsRender runs, at ScaleBench and seed 1, each registered
// experiment that no shape test in this file renders and that fits a 15 s
// budget, and requires its render to equal the committed
// results/bench/<id>.txt byte for byte. The seconds are each
// ID's cost with a fresh Runner, measured on a 2-core AVX2 Xeon: the
// rendered ones total ≈ 11 s, and adding any left-out one breaks the
// budget (table5, fig2, fig4 and fig5 draw on one cached sweep, so
// together they cost what table5 or fig4 costs alone). Render those with
// `go run ./cmd/flsim -experiment <id> -scale bench`.
func TestArtifactsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every cheap experiment at bench scale")
	}
	shapeTested := []string{"compression", "faults", "fedopt", "robustness", "straggler", "table1", "table3"}
	rendered := map[string]float64{"table2": 1.1, "table6": 2.6, "table8": 3.1, "fig6": 3.4, "scale1k": 0.9, "scale100k": 0.1}
	leftOut := map[string]float64{"table5": 20.9, "fig2": 6.3, "fig4": 21.2, "fig5": 14.3, "fig7": 5.0, "table7": 15.4}

	covered := map[string]bool{}
	for _, id := range shapeTested {
		covered[id] = true
	}
	for _, m := range []map[string]float64{rendered, leftOut} {
		for id := range m {
			covered[id] = true
		}
	}
	for _, id := range IDs() {
		if !covered[id] {
			t.Errorf("experiment %q is neither rendered nor left out here", id)
		}
	}
	r := NewRunner(ScaleBench)
	for _, id := range IDs() {
		if sec, ok := leftOut[id]; ok {
			t.Logf("left out %s: %.1f s at ScaleBench", id, sec)
		}
		if _, ok := rendered[id]; !ok {
			continue
		}
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", "bench", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := render(t, id, r); got != string(want) {
				t.Fatalf("render differs from results/bench/%s.txt:\n%s", id, got)
			}
		})
	}
}

// TestTable1Artifact runs the cheapest full experiment end to end and
// checks the rendered shape.
func TestTable1Artifact(t *testing.T) {
	if testing.Short() {
		t.Skip("measures local updates")
	}
	s := render(t, "table1", NewRunner(ScaleQuick))
	for _, frag := range []string{"Table I", "fmnist", "svhn", "modeled", "measured", "STEM"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("Table I render missing %q:\n%s", frag, s)
		}
	}
	// A method measured faster than FedAvg reads (-x%), not (+-x%).
	if strings.Contains(s, "+-") {
		t.Fatalf("Table I render signs an overhead twice:\n%s", s)
	}
}

// TestTable3Artifact checks the capability matrix without training runs.
func TestTable3Artifact(t *testing.T) {
	s := render(t, "table3", NewRunner(ScaleQuick))
	for _, frag := range []string{"TACO", "yes", "no", "Freeloader"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("Table III render missing %q:\n%s", frag, s)
		}
	}
	// TACO's row must be the only one with freeloader detection.
	lines := strings.Split(s, "\n")
	for _, line := range lines {
		if strings.Contains(line, "| TACO") {
			if !strings.Contains(line, "yes") {
				t.Fatalf("TACO row missing capabilities: %s", line)
			}
		}
	}
}

// TestRobustnessArtifact runs the attack grid end to end at bench scale
// (adult only) and checks the rendered shape: every attack row, the
// weight-mass cells, and the detection columns.
func TestRobustnessArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the attack grid")
	}
	s := render(t, "robustness", NewRunner(ScaleBench))
	for _, atk := range labels(attacks) {
		if !strings.Contains(s, atk) {
			t.Fatalf("robustness render missing attack %q:\n%s", atk, s)
		}
	}
	for _, frag := range []string{"FedAvg", "Scaffold", "FG", "TACO", "det P/R", "|0."} {
		if !strings.Contains(s, frag) {
			t.Fatalf("robustness render missing %q:\n%s", frag, s)
		}
	}
}

// TestDetectionCell pins the detection columns' rendering: a detector that
// flagged nobody reads as such, not as perfect precision.
func TestDetectionCell(t *testing.T) {
	for _, c := range []struct {
		d    metrics.Detection
		want string
	}{
		{metrics.Detection{FN: 3, TN: 7}, "— (0 flagged)"},
		{metrics.Detection{TN: 10}, "— (0 flagged)"},
		{metrics.Detection{TP: 3, TN: 7}, "1.00/1.00"},
		{metrics.Detection{TP: 1, FP: 1, FN: 2, TN: 6}, "0.50/0.33"},
		{metrics.Detection{FP: 2, FN: 3, TN: 5}, "0.00/0.00"},
	} {
		if got := detectionCell(c.d); got != c.want {
			t.Fatalf("detectionCell(%+v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestCompressionArtifact runs the codec grid end to end at bench scale
// (adult only) and checks the rendered shape: every codec row plus the
// wire-cost columns, with the lossy rows actually reporting compression.
func TestCompressionArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the codec grid")
	}
	s := render(t, "compression", NewRunner(ScaleBench))
	for _, codec := range labels(compression.Rows[0]) {
		if !strings.Contains(s, codec) {
			t.Fatalf("compression render missing codec %q:\n%s", codec, s)
		}
	}
	for _, frag := range []string{"FedAvg", "Scaffold", "TACO", "Uplink", "Ratio", "MiB", "1.0x"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("compression render missing %q:\n%s", frag, s)
		}
	}
}

// TestFaultsArtifact runs the fault-injection × policy study end to end
// at bench scale and checks the rendered shape: every fault condition,
// every method, and the per-policy recovery-tally columns.
func TestFaultsArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 45 small runs")
	}
	s := render(t, "faults", NewRunner(ScaleBench))
	conds := labels(faults.Rows[0])
	for _, cond := range conds {
		if !strings.Contains(s, cond) {
			t.Fatalf("faults render missing condition %q:\n%s", cond, s)
		}
	}
	for _, frag := range []string{"FedAvg", "Scaffold", "TACO", "degr", "lost", "retry"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("faults render missing %q:\n%s", frag, s)
		}
	}
	// 5 conditions × 3 methods.
	for _, cond := range conds {
		if strings.Count(s, cond) < 3 {
			t.Fatalf("condition %s missing rows:\n%s", cond, s)
		}
	}
}

// TestFedOptArtifact runs the stack × optimizer × rule grid end to end
// at bench scale and checks the rendered shape: every attack and server
// configuration column, the weight-mass cells, and the stack-engagement
// tallies.
func TestFedOptArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the fedopt grid")
	}
	s := render(t, "fedopt", NewRunner(ScaleBench))
	for _, atk := range labels(fedopt.Rows[0]) {
		if !strings.Contains(s, atk) {
			t.Fatalf("fedopt render missing attack %q:\n%s", atk, s)
		}
	}
	for _, frag := range []string{"FedAvg", "Scaffold", "TACO", "bare", "+zeroing|clip", "+stack+adam", "zeroed/clipped", "|0."} {
		if !strings.Contains(s, frag) {
			t.Fatalf("fedopt render missing %q:\n%s", frag, s)
		}
	}
	// Every (attack, alg) row carries the stacked run's engagement tally.
	if strings.Count(s, "/") < len(fedopt.Rows[0])*len(scenarioMethods) {
		t.Fatalf("fedopt render missing engagement tallies:\n%s", s)
	}
}

func TestSuppressedClients(t *testing.T) {
	// Clients 0 and 3 accumulated less than half the uniform share
	// (total 4 over 4 clients -> uniform 1, threshold 0.5).
	flagged := suppressedClients([]float64{0.2, 1.6, 1.9, 0.3})
	want := []bool{true, false, false, true}
	for i := range want {
		if flagged[i] != want[i] {
			t.Fatalf("suppressedClients = %v, want %v", flagged, want)
		}
	}
	for _, f := range suppressedClients([]float64{0, 0}) {
		if f {
			t.Fatal("zero-mass run must flag nobody")
		}
	}
}

func TestFreeloaderIDsSpread(t *testing.T) {
	ids := freeloaderIDs(20)
	if len(ids) != 8 {
		t.Fatalf("got %d freeloaders, want 8 (40%% of 20)", len(ids))
	}
	seen := map[int]bool{}
	groups := map[int]bool{} // thirds of the client range
	for _, id := range ids {
		if id < 0 || id >= 20 {
			t.Fatalf("id %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		groups[id/7] = true
	}
	if len(groups) < 3 {
		t.Fatalf("freeloaders not spread across the client range: %v", ids)
	}
}

// TestStragglerArtifact runs the heterogeneity × policy study end to end
// at bench scale and checks the rendered shape.
func TestStragglerArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 27 small runs")
	}
	s := render(t, "straggler", NewRunner(ScaleBench))
	for _, frag := range []string{"uniform", "mild", "extreme", "TACO", "Scaffold", "drops", "stale", "t_wall"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("straggler render missing %q:\n%s", frag, s)
		}
	}
	// 3 fleets × 3 methods.
	if rows := strings.Count(s, "| "); rows == 0 {
		t.Fatalf("no table rows rendered:\n%s", s)
	}
	for _, fleet := range []string{"uniform", "mild", "extreme"} {
		if strings.Count(s, fleet) < 3 {
			t.Fatalf("fleet %s missing rows:\n%s", fleet, s)
		}
	}
}

// stripPrior removes what the prior notes add to a render: the ≡ markers
// and the "prior:" note lines. Table rows compare cell by cell, trimmed,
// since a marker widens its column's padding and separator.
func stripPrior(text string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "note: prior: ") {
			continue
		}
		line = strings.ReplaceAll(line, "≡", "")
		if strings.HasPrefix(line, "|") {
			cells := strings.Split(line, "|")
			for i, c := range cells {
				if cells[i] = strings.TrimSpace(c); strings.Trim(cells[i], "-") == "" {
					cells[i] = strings.TrimLeft(cells[i], "-")
				}
			}
			line = strings.Join(cells, "|")
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestRendersDifferFromParentOnlyByPrior: once its ≡ markers and prior
// notes are stripped, every committed render without wall-clock columns
// reads as it did before the notes existed. The FNV-1a hashes are of the
// stripped texts as committed just before the prior notes were added,
// except the two faults renders' and Table V's: their hand-written
// expectations gave way to a paper: line and computed observed: notes, and
// the quick-scale faults render's async column moved when failed async
// attempts stopped training (CHANGES.md).
func TestRendersDifferFromParentOnlyByPrior(t *testing.T) {
	want := map[string]string{
		"bench/compression.txt": "6cc439d861965c48",
		"bench/faults.txt":      "54cb58620f721a35",
		"bench/fedopt.txt":      "12d67ab320552824",
		"bench/fig2.txt":        "0ba104a423211e5a",
		"bench/fig4.txt":        "b070f7043acf0001",
		"bench/fig6.txt":        "1d5a3a4fabdd5783",
		"bench/fig7.txt":        "9cf392ac59d2b0f5",
		"bench/robustness.txt":  "6e3c90f88487c417",
		"bench/scale100k.txt":   "453ce1b172c84fd8",
		"bench/scale1k.txt":     "171a2dad71abbcb1",
		"bench/straggler.txt":   "e6323c3596b9de8a",
		"bench/table2.txt":      "dcff9701bb9b1f00",
		"bench/table3.txt":      "8a524adf6cebd3cd",
		"bench/table5.txt":      "49c8fc7f16b2e32f",
		"bench/table6.txt":      "2c90c82240f60680",
		"bench/table7.txt":      "3649bdeba88d9347",
		"bench/table8.txt":      "43377b74e45cd418",
		"compression.txt":       "7e8579888f643a4b",
		"faults.txt":            "3ae50a92692b5d9b",
		"robustness.txt":        "fe094347e5a9b7a3",
		"straggler.txt":         "5c114b9ed7ef647c",
	}
	for path, sum := range want {
		text, err := os.ReadFile(filepath.Join("..", "..", "results", path))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write([]byte(stripPrior(string(text))))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != sum {
			t.Errorf("%s: stripped text hashes to %s, want %s", path, got, sum)
		}
	}
}

// TestPctMarksOneClassPredictors: ≡ needs both a top-class share within
// one test sample of 1 and an accuracy within one sample of a class's
// share. An accuracy near a class share from a model that spreads its
// predictions stays unmarked, as does a one-class model whose accuracy
// is no class's share.
func TestPctMarksOneClassPredictors(t *testing.T) {
	c := &Cell{prior: &prior{counts: []int{36, 964}, n: 1000}}
	for _, tc := range []struct {
		acc, top float64
		want     string
	}{
		{0.964, 1, "96.40%≡"},
		{0.963, 0.999, "96.30%≡"},
		{0.036, 1, "3.60%≡"},
		{0.964, 0.998, "96.40%"},
		{0.035, 0.4, "3.50%"},
		{0.5, 1, "50.00%"},
	} {
		if got := c.pct(metrics.Round{Accuracy: tc.acc, TopClassShare: tc.top}); got != tc.want {
			t.Errorf("pct(acc %v, top %v) = %q, want %q", tc.acc, tc.top, got, tc.want)
		}
	}
}
