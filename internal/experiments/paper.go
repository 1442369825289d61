package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/adversary"
	"repro/internal/metrics"
	"repro/internal/report"
)

// paperMethods is the methods axis of the paper's comparisons.
var paperMethods = methods(AlgorithmNames()...)

// Table V and Fig. 2, 4, 5 and 6 read the sweep: every method on every
// dataset at its default profile, cached under one ID so that each run
// trains once per process.

// table5 reproduces "Round-to-Accuracy performance of various algorithms
// across different datasets": final accuracy after the budgeted rounds and
// the rounds needed to reach each dataset's target accuracy ("×" marks a
// divergence, "R+" a run that never reached the target).
var table5 = &Grid{
	ID:      "sweep",
	Title:   "Table V: Round-to-Accuracy across datasets (reproduction)",
	Columns: []string{"Method"},
	Head: func(c *Cell) []string {
		return []string{fmt.Sprintf("%s Acc@%dR", c.Profile.Dataset, c.Profile.Rounds),
			fmt.Sprintf("Rounds(%.0f%%)", c.Profile.TargetAcc*100)}
	},
	Rows: []Axis{paperMethods},
	Cols: []Axis{datasets(SweepDatasets()...)},
	Cell: func(c *Cell) []string {
		if c.Run.Diverged {
			return []string{"×", "×"}
		}
		rounds := fmt.Sprintf("%d+", c.Profile.Rounds)
		if n, ok := c.Run.RoundsToAccuracy(c.Profile.TargetAcc); ok {
			rounds = fmt.Sprintf("%d", n)
		}
		return []string{c.pct(c.final()), rounds}
	},
	Notes: []string{
		"paper: TACO attains the best accuracy on every dataset and the fewest rounds to target; FedProx and Scaffold trail FedAvg (over-correction), with divergence (×) on the hardest set."},
	Observe: table5Observed,
}

// table5Observed states the best methods per dataset by final accuracy
// (ties joined by =), how many datasets TACO leads, and the divergences.
func table5Observed(_ [][]Level, cells [][]*Cell) []string {
	var best, diverged []string
	taco := 0
	for j, top := range cells[0] {
		for _, row := range cells {
			if row[j].Run.Diverged {
				diverged = append(diverged, row[j].Method+" on "+top.Profile.Dataset)
			}
		}
		names, _ := leaders(cells, j)
		if slices.Contains(names, "TACO") {
			taco++
		}
		best = append(best, top.Profile.Dataset+" "+strings.Join(names, "="))
	}
	return []string{fmt.Sprintf("observed: best final accuracy: %s; TACO best on %d/%d; diverged: %s",
		strings.Join(best, ", "), taco, len(cells[0]), cmp.Or(strings.Join(diverged, ", "), "none"))}
}

// fig4 reproduces "Cumulative local training time required by different
// algorithms to achieve the target accuracy", normalized to FedAvg = 1.
// Entries: "fail" = divergence, ">X" = target never reached (timeout).
var fig4 = &Grid{
	ID:      "sweep",
	Title:   "Fig. 4: Normalized modeled time-to-target (FedAvg = 1.00)",
	Columns: append([]string{"Method"}, SweepDatasets()...),
	Rows:    []Axis{paperMethods},
	Cols:    []Axis{datasets(SweepDatasets()...)},
	Cell: func(c *Cell) []string {
		if c.Run.Diverged {
			return []string{"fail"}
		}
		base, _ := timeToTarget(c.Top) // the FedAvg row
		sec, ok := timeToTarget(c)
		if !ok {
			return []string{fmt.Sprintf(">%.2f", sec/base)}
		}
		return []string{fmt.Sprintf("%.2f", sec/base)}
	},
	Notes: []string{
		"paper shape: TACO is fastest (0.37-0.74 of FedAvg); STEM often exceeds FedAvg's time",
		"despite fewer rounds, because of its per-step second gradient pass."},
}

// timeToTarget is the modeled time a run took to reach its target
// accuracy, or its whole modeled time and false if it never did.
func timeToTarget(c *Cell) (float64, bool) {
	if sec, ok := c.Run.ModeledTimeToAccuracy(c.Profile.TargetAcc); ok {
		return sec, true
	}
	return c.Run.Rounds[len(c.Run.Rounds)-1].CumModeledSec, false
}

// fig2 reproduces the re-evaluation curves on FMNIST and SVHN:
// round-to-accuracy (2a, 2b) and modeled time-to-accuracy (2c, 2d).
var fig2 = &Grid{
	ID:   "sweep",
	Rows: []Axis{datasets("fmnist", "svhn")},
	Cols: []Axis{paperMethods},
	Figures: func(row []*Cell) []Artifact {
		ds := row[0].Profile.Dataset
		return []Artifact{
			curves(row, "Fig. 2 Round-Accuracy ("+ds+")", "round", roundX),
			curves(row, "Fig. 2 Time-Accuracy ("+ds+")", "modeled computation seconds",
				func(rec metrics.Round) float64 { return rec.CumModeledSec }),
		}
	},
}

func roundX(rec metrics.Round) float64 { return float64(rec.Index + 1) }

// curves plots each cell's test accuracy over x, one series per method.
func curves(row []*Cell, title, xLabel string, x func(metrics.Round) float64) *report.Figure {
	f := &report.Figure{Title: title, XLabel: xLabel, YLabel: "test accuracy"}
	for _, c := range row {
		s := report.Series{Label: c.Method}
		for _, rec := range c.Run.Rounds {
			s.X = append(s.X, x(rec))
			s.Y = append(s.Y, rec.Accuracy)
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// fig5 reproduces "Local computation time for clients in every FL round"
// for the four model families: modeled per-round seconds (deterministic)
// and the median measured per-round seconds of the slowest client.
var fig5 = &Grid{
	ID:      "sweep",
	Title:   "Fig. 5: Per-round client computation time (modeled s | measured s)",
	Columns: []string{"Method", "adult-MLP", "svhn-CNN", "cifar100-ResNet", "shakespeare-LSTM"},
	Rows:    []Axis{paperMethods},
	Cols:    []Axis{datasets("adult", "svhn", "cifar100", "shakespeare")},
	Cell: func(c *Cell) []string {
		return []string{fmt.Sprintf("%.3f | %.3f", c.Run.MedianSlowestModeledSec(), c.Run.MedianSlowestMeasuredSec())}
	},
	Notes: []string{
		"paper shape: FedAvg and FoolsGold are cheapest; STEM is the most expensive per round;",
		"FedProx/FedACG pay for in-loss regularizers; TACO adds only a small correction AXPY."},
}

// fig6 reproduces "Performance gain in prior methods using TACO": FedProx
// versus FedProx(TACO) on SVHN and Scaffold versus Scaffold(TACO) on
// CIFAR-10, with FedAvg as the reference. A row names the dataset and the
// baseline; the hybrid column runs the baseline with TACO's tailored
// coefficients.
var fig6 = &Grid{
	ID: "sweep",
	Rows: []Axis{{
		{Label: "svhn", Data: "svhn", Method: "FedProx"},
		{Label: "cifar10", Data: "cifar10", Method: "Scaffold"},
	}},
	Cols: []Axis{{
		{Label: "FedAvg", Method: "FedAvg"},
		{Label: "baseline"},
		{Label: "hybrid", Set: func(s *Setup) { s.Method += "(TACO)" }},
	}},
	Figures: func(row []*Cell) []Artifact {
		f := curves(row, fmt.Sprintf("Fig. 6: %s vs %s (%s)", row[1].Method, row[2].Method, row[0].Profile.Dataset), "round", roundX)
		for i, c := range row {
			if c.Run.Diverged {
				f.Series[i].Label += " (diverged)"
			}
		}
		f.Notes = []string{
			"paper shape: the tailored coefficients rescue the uniform-coefficient method,",
			"lifting it from below FedAvg (or divergence) to above it."}
		return []Artifact{f}
	},
}

// table6 reproduces the ablation study: the four combinations of TACO's
// tailored correction (Eq. 8) and tailored aggregation (Eq. 9) on FEMNIST
// and adult under two Dirichlet levels each.
var table6 = &Grid{
	ID:      "table6",
	Title:   "Table VI: Ablation of tailored correction and aggregation (final accuracy)",
	Columns: []string{"Variant", "femnist Dir(0.2)", "femnist Dir(0.5)", "adult Dir(0.1)", "adult Dir(0.5)"},
	Rows: []Axis{{
		tailored("corr=no  agg=no", false, false),
		tailored("corr=no  agg=yes", false, true),
		tailored("corr=yes agg=no", true, false),
		tailored("corr=yes agg=yes", true, true),
	}},
	Cols: []Axis{methods("TACO"), {
		dirichlet("femnist", 0.2), dirichlet("femnist", 0.5), dirichlet("adult", 0.1), dirichlet("adult", 0.5),
	}},
	Cell: func(c *Cell) []string { return []string{c.pct(c.final())} },
	Notes: []string{
		"paper shape: both components help; the tailored correction contributes more than",
		"the tailored aggregation, and the full combination is best."},
}

// tailored switches TACO's tailored correction and aggregation on or off.
func tailored(label string, corr, agg bool) Level {
	return Level{Label: label, Set: func(s *Setup) {
		s.TACO.DisableTailoredCorrection, s.TACO.DisableTailoredAggregation = !corr, !agg
	}}
}

// dirichlet is the dataset split Dir(phi) across its clients.
func dirichlet(ds string, phi float64) Level {
	return Level{Label: fmt.Sprint(phi), Data: ds, Set: func(s *Setup) {
		s.Profile.Partition, s.Profile.DirPhi = PartDirichlet, phi
	}}
}

// table7 reproduces the 100-client scalability study on adult, FEMNIST,
// and CIFAR-100. Round budgets shrink with the larger client count so the
// quick profile stays tractable on one core.
var table7 = &Grid{
	ID:      "table7",
	Title:   "Table VII: Scalability with 100 clients (final accuracy)",
	Columns: []string{"Method", "adult", "femnist", "cifar100"},
	Rows:    []Axis{paperMethods},
	Cols:    []Axis{datasets("adult", "femnist", "cifar100")},
	Mutate: func(s *Setup) {
		p := &s.Profile
		p.Clients = 100
		// Keep total work comparable: more clients, fewer rounds and
		// local steps than the 20-client profile.
		p.Rounds, p.LocalSteps = max(p.Rounds*2/3, 6), max(p.LocalSteps*2/3, 4)
		if p.Dataset == "cifar100" {
			// The ResNet at 100 clients is the most expensive cell of the
			// whole harness; cap its budget.
			p.Rounds, p.LocalSteps = 8, 4
			if s.Scale == ScaleBench {
				p.Rounds, p.LocalSteps = 5, 3
			}
		}
	},
	Cell: accCell,
	Notes: []string{
		"paper shape: TACO's lead widens at 100 clients (paper: +3.9% over the best baseline",
		"on CIFAR-100), showing the tailored coefficients scale with client diversity."},
}

// fig7 reproduces the γ sensitivity study: TACO's final accuracy across
// γ ∈ {0, 1e-3, 1e-2, 1e-1, 1} for three datasets with increasing local
// step counts, exhibiting the paper's γ* ≈ 1/K rule and the failure
// threshold at large γ·K.
var fig7 = &Grid{
	ID:      "fig7",
	Title:   "Fig. 7: Sensitivity of γ (TACO final accuracy; × = divergence)",
	Columns: []string{"γ", "mnist (K=5)", "fmnist (K=10)", "cifar10 (K=20)"},
	Rows: []Axis{levels("%g", []float64{0, 0.001, 0.01, 0.1, 1}, func(s *Setup, g float64) {
		// Config.Gamma == 0 selects the 1/K default, so an explicit γ=0
		// run disables the correction instead.
		s.TACO.Gamma, s.TACO.DisableTailoredCorrection = g, g == 0
	})},
	Cols: []Axis{methods("TACO"), {localSteps("mnist", 5), localSteps("fmnist", 10), localSteps("cifar10", 20)}},
	Mutate: func(s *Setup) {
		// K is the experiment variable (γ* ≈ 1/K); keep it and trim
		// rounds instead under the bench profile.
		if s.Scale == ScaleBench {
			s.Profile.Rounds = max(s.Profile.Rounds*2/3, 5)
		}
	},
	Cell: accCell,
	Notes: []string{
		"paper shape: accuracy improves with γ up to γ* ≈ 1/K, then degrades or diverges;",
		"the best column entry should sit near γ=1/K for each dataset's K."},
}

// localSteps trains ds with K = k local steps a round.
func localSteps(ds string, k int) Level {
	return Level{Label: fmt.Sprint(k), Data: ds, Set: func(s *Setup) { s.Profile.LocalSteps = k }}
}

// table8 reproduces "Sensitivity of thresholds λ and κ": freeloader
// detection TPR/FPR on FMNIST over a grid of suspicion thresholds κ and
// strike limits λ.
var table8 = &Grid{
	ID:      "table8",
	Title:   "Table VIII: Freeloader detection sensitivity (FMNIST, 8/20 freeloaders)",
	Columns: []string{"κ", "λ=T/10 TPR", "λ=T/10 FPR", "λ=T/5 TPR", "λ=T/5 FPR", "λ=T/2 TPR", "λ=T/2 FPR"},
	Rows:    []Axis{levels("%.1f", []float64{0.4, 0.5, 0.6, 0.8, 0.9, 1.0}, func(s *Setup, k float64) { s.TACO.Kappa = k })},
	Cols: []Axis{datasets("fmnist"), methods("TACO"), levels("T/%d", []int{10, 5, 2}, func(s *Setup, div int) {
		s.TACO.MaxStrikes = max(s.Profile.Rounds/div, 1)
	})},
	Mutate: func(s *Setup) {
		s.Config.Adversaries = []adversary.Spec{adversary.Freeloaders(freeloaderIDs(s.Profile.Clients))}
		s.TACO.DetectFreeloaders = true
	},
	Cell: func(c *Cell) []string {
		d := metrics.EvalDetection(expelled(c), flags(c.Profile.Clients, freeloaderIDs(c.Profile.Clients)))
		return []string{report.Pct(d.Recall()), report.Pct(float64(d.FP) / float64(d.FP+d.TN))}
	},
	Notes: []string{
		"paper shape: a wide κ band (≈0.5-0.8) detects all freeloaders with zero false positives;",
		"κ=1.0 detects nothing; small κ with lenient λ starts flagging benign clients."},
}
