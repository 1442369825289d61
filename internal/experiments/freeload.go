package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
)

// freeloaderIDs returns the paper's Table II/VIII setup: 40% of clients
// (8 of 20) replaced by freeloaders, spread evenly across the client
// range so every label-diversity group keeps honest members.
func freeloaderIDs(clients int) []int {
	count := clients * 2 / 5
	ids := make([]int, count)
	for i := range ids {
		ids[i] = (i*clients + clients/2) / count % clients
	}
	return ids
}

// Table2 reproduces "Average value of α_i of different groups of clients":
// TACO's correction coefficients grouped by label diversity (Groups A/B/C)
// plus freeloaders, on four image datasets.
func Table2(r *Runner) (*report.Table, error) {
	datasets := []string{"mnist", "fmnist", "svhn", "cifar10"}
	t := &report.Table{Title: "Table II: Mean TACO α per client group (mean±std over rounds)"}
	t.Columns = append([]string{"Group"}, datasets...)
	rows := map[string][]string{"Group A": {"Group A"}, "Group B": {"Group B"}, "Group C": {"Group C"}, "Freeloaders": {"Freeloaders"}}
	order := []string{"Group A", "Group B", "Group C", "Freeloaders"}

	for _, ds := range datasets {
		profile, err := ProfileFor(ds, r.Scale)
		if err != nil {
			return nil, err
		}
		cfg, shards, test, groupOf, err := profile.Materialize(r.Seed)
		if err != nil {
			return nil, err
		}
		frees := freeloaderIDs(profile.Clients)
		cfg.Adversaries = []adversary.Spec{adversary.Freeloaders(frees)}
		// Detection off: Table II observes α including freeloaders for the
		// whole run, without expelling anyone.
		tcfg := core.Recommended()
		taco := core.New(tcfg)
		net, err := profile.Model()
		if err != nil {
			return nil, err
		}
		if _, err := fl.Run(*cfg, taco, net, shards, test); err != nil {
			return nil, err
		}

		freeSet := make(map[int]bool, len(frees))
		for _, id := range frees {
			freeSet[id] = true
		}
		groupVals := map[string][]float64{}
		history := taco.AlphaHistory()
		// Skip the first quarter of rounds: α needs a few rounds to reflect
		// the clients' data rather than the 0.1 initialization.
		for t := len(history) / 4; t < len(history); t++ {
			for id, alpha := range history[t] {
				key := ""
				switch {
				case freeSet[id]:
					key = "Freeloaders"
				case groupOf[id] == 0:
					key = "Group A"
				case groupOf[id] == 1:
					key = "Group B"
				default:
					key = "Group C"
				}
				groupVals[key] = append(groupVals[key], alpha)
			}
		}
		for _, g := range order {
			mean, std := metrics.MeanStd(groupVals[g])
			rows[g] = append(rows[g], fmt.Sprintf("%.2f±%.2f", mean, std))
		}
	}
	for _, g := range order {
		t.AddRow(rows[g]...)
	}
	t.Notes = append(t.Notes,
		"paper shape: α rises with label diversity (A < B < C) and freeloaders stand far above",
		"all honest groups (paper: 0.75-0.88), enabling threshold detection (Eq. 10).")
	return t, nil
}

// Table8 reproduces "Sensitivity of thresholds λ and κ": freeloader
// detection TPR/FPR on FMNIST over a grid of suspicion thresholds κ and
// strike limits λ.
func Table8(r *Runner) (*report.Table, error) {
	profile, err := ProfileFor("fmnist", r.Scale)
	if err != nil {
		return nil, err
	}
	kappas := []float64{0.4, 0.5, 0.6, 0.8, 0.9, 1.0}
	lambdas := []struct {
		label string
		value func(T int) int
	}{
		{"T/10", func(T int) int { return max(T/10, 1) }},
		{"T/5", func(T int) int { return max(T/5, 1) }},
		{"T/2", func(T int) int { return max(T/2, 1) }},
	}
	t := &report.Table{Title: "Table VIII: Freeloader detection sensitivity (FMNIST, 8/20 freeloaders)"}
	t.Columns = []string{"κ"}
	for _, l := range lambdas {
		t.Columns = append(t.Columns, "λ="+l.label+" TPR", "λ="+l.label+" FPR")
	}
	frees := freeloaderIDs(profile.Clients)
	freeSet := make(map[int]bool, len(frees))
	for _, id := range frees {
		freeSet[id] = true
	}
	for _, kappa := range kappas {
		row := []string{fmt.Sprintf("%.1f", kappa)}
		for _, l := range lambdas {
			key := fmt.Sprintf("table8/k%.1f/l%s", kappa, l.label)
			res, err := r.RunOne(key, "fmnist", "TACO", func(cfg *fl.Config, alg fl.Algorithm) {
				cfg.Adversaries = []adversary.Spec{adversary.Freeloaders(frees)}
				taco := alg.(*core.TACO)
				tcfg := core.Recommended()
				tcfg.DetectFreeloaders = true
				tcfg.Kappa = kappa
				tcfg.MaxStrikes = l.value(cfg.Rounds)
				*taco = *core.New(tcfg)
			})
			if err != nil {
				return nil, err
			}
			tp, fp := 0, 0
			for id := range res.Expelled {
				if freeSet[id] {
					tp++
				} else {
					fp++
				}
			}
			tpr := float64(tp) / float64(len(frees))
			fpr := float64(fp) / float64(profile.Clients-len(frees))
			row = append(row, report.Pct(tpr), report.Pct(fpr))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper shape: a wide κ band (≈0.5-0.8) detects all freeloaders with zero false positives;",
		"κ=1.0 detects nothing; small κ with lenient λ starts flagging benign clients.")
	return t, nil
}
