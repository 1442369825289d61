package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
)

// robustnessAlgs are the aggregation rules compared under attack: the
// undefended baseline, the uniform-correction method, the
// similarity-weighted defense, and TACO (with Eq. (10) detection on).
func robustnessAlgs() []string { return []string{"FedAvg", "Scaffold", "FG", "TACO"} }

// robustnessAttack is one row of the attack grid.
type robustnessAttack struct {
	name string
	// spec is nil for the clean baseline row.
	spec *adversary.Spec
}

// robustnessAttacks builds the attack grid: every injector kind at a 30%
// corruption rate (40% for freeloaders, the paper's Table II setting),
// plus the clean baseline the degradation is measured against.
func robustnessAttacks() []robustnessAttack {
	return []robustnessAttack{
		{name: "clean"},
		{name: "labelflip", spec: &adversary.Spec{Kind: adversary.KindLabelFlip, Frac: 0.3}},
		{name: "labelnoise", spec: &adversary.Spec{Kind: adversary.KindLabelNoise, Frac: 0.3, Scale: 0.8}},
		{name: "signflip", spec: &adversary.Spec{Kind: adversary.KindSignFlip, Frac: 0.3}},
		{name: "scale", spec: &adversary.Spec{Kind: adversary.KindScale, Frac: 0.3, Scale: 5}},
		{name: "deltanoise", spec: &adversary.Spec{Kind: adversary.KindDeltaNoise, Frac: 0.3, Scale: 2}},
		{name: "freeload", spec: &adversary.Spec{Kind: adversary.KindFreeloader, Frac: 0.4}},
		{name: "sybil", spec: &adversary.Spec{Kind: adversary.KindSybil, Frac: 0.3, Scale: 2}},
	}
}

// robustnessDatasets trims the grid per scale: the bench profile (also
// the test suite's) runs the MLP only; the CLI profiles add the CNN.
func robustnessDatasets(s Scale) []string {
	if s == ScaleBench {
		return []string{"adult"}
	}
	return []string{"adult", "fmnist"}
}

// robustnessRounds trims the round budget per scale: the grid shares
// dozens of runs, so each stays small.
func robustnessRounds(s Scale) int {
	switch s {
	case ScaleBench:
		return 5
	case ScaleFull:
		return 16
	default:
		return 8
	}
}

// Robustness is the threat-model scenario study (not a paper artifact):
// the attack grid × aggregation rules, reporting each cell's final
// accuracy and the aggregation-weight mass the rule granted the corrupt
// camp, plus corrupt-client detection precision/recall for the two
// defenses — FoolsGold by weight suppression (cumulative weight below
// half the uniform share) and TACO by κ-threshold expulsion (Eq. 10).
func Robustness(r *Runner) (*report.Table, error) {
	algs := robustnessAlgs()
	t := &report.Table{Title: "Robustness: attack grid × aggregation rule (final accuracy | corrupt weight mass)"}
	t.Columns = []string{"Attack", "Data"}
	t.Columns = append(t.Columns, algs...)
	t.Columns = append(t.Columns, "FG det P/R", "TACO det P/R")

	for _, atk := range robustnessAttacks() {
		for _, ds := range robustnessDatasets(r.Scale) {
			profile, err := ProfileFor(ds, r.Scale)
			if err != nil {
				return nil, err
			}
			var truth []bool
			if atk.spec != nil {
				truth = make([]bool, profile.Clients)
				for _, id := range atk.spec.Members(profile.Clients) {
					truth[id] = true
				}
			}
			row := []string{atk.name, ds}
			var fgDet, tacoDet string = "—", "—"
			for _, algName := range algs {
				key := fmt.Sprintf("robustness/%s/%s/%s", atk.name, ds, algName)
				res, err := r.RunOne(key, ds, algName, func(cfg *fl.Config, alg fl.Algorithm) {
					cfg.Rounds = robustnessRounds(r.Scale)
					if atk.spec != nil {
						cfg.Adversaries = []adversary.Spec{*atk.spec}
					}
					if taco, ok := alg.(*core.TACO); ok {
						tcfg := core.Recommended()
						tcfg.DetectFreeloaders = true
						// The grid trims Rounds, so the paper's λ = T/5
						// default would expel on a single suspicion;
						// require half the budget instead.
						tcfg.MaxStrikes = max(cfg.Rounds/2, 2)
						*taco = *core.New(tcfg)
					}
				})
				if err != nil {
					return nil, err
				}
				run := res.Run
				cell := "×"
				if !run.Diverged {
					cell = report.Pct(run.FinalAccuracy())
				}
				if atk.spec != nil && !run.Diverged {
					cell += fmt.Sprintf(" |%.2f", run.MeanCorruptWeight())
				}
				row = append(row, cell)
				if atk.spec == nil {
					continue
				}
				switch algName {
				case "FG":
					fgDet = detectionCell(metrics.EvalDetection(suppressedClients(res.CumWeights), truth))
				case "TACO":
					flagged := make([]bool, profile.Clients)
					for id := range res.Expelled {
						flagged[id] = true
					}
					tacoDet = detectionCell(metrics.EvalDetection(flagged, truth))
				}
			}
			row = append(row, fgDet, tacoDet)
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"cell: final accuracy | mean per-round aggregation-weight mass granted the corrupt",
		"camp (head-count share: 0.30, freeload 0.40). Expected shape: FedAvg/Scaffold grant",
		"attackers their full share; FoolsGold and TACO's tailored α-weights suppress the",
		"mass on direction-coherent attacks (signflip, sybil, freeload). Detection P/R:",
		"FoolsGold flags clients whose cumulative weight falls below half the uniform",
		"share; TACO flags by Eq. (10) expulsion.")
	return t, nil
}

// detectionCell renders a detector's precision/recall. A detector that
// flagged nobody has no precision to show: Detection.Precision's
// no-false-alarm convention would print it as a perfect 1.00.
func detectionCell(d metrics.Detection) string {
	if d.TP+d.FP == 0 {
		return "— (0 flagged)"
	}
	return fmt.Sprintf("%.2f/%.2f", d.Precision(), d.Recall())
}

// suppressedClients flags clients whose cumulative reported aggregation
// weight fell below half the uniform share — the weight-suppression
// notion of detection for similarity-weighted defenses.
func suppressedClients(cumWeights []float64) []bool {
	flagged := make([]bool, len(cumWeights))
	var total float64
	for _, w := range cumWeights {
		total += w
	}
	if total == 0 {
		return flagged
	}
	threshold := 0.5 * total / float64(len(cumWeights))
	for i, w := range cumWeights {
		flagged[i] = w < threshold
	}
	return flagged
}
