package experiments

import (
	"fmt"
	"slices"

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

// table2 reproduces "Average value of α_i of different groups of clients":
// TACO's correction coefficients grouped by label diversity (Groups A/B/C)
// plus freeloaders, on four image datasets. It stays outside the grid
// because it reads the trained TACO's per-round α (alphaLog), not a run's
// metrics.
func table2(r *Runner) ([]Artifact, error) {
	datasets := []string{"mnist", "fmnist", "svhn", "cifar10"}
	t := &report.Table{Title: "Table II: Mean TACO α per client group (mean±std over rounds)",
		Columns: append([]string{"Group"}, datasets...),
		Rows:    [][]string{{"Group A"}, {"Group B"}, {"Group C"}, {"Freeloaders"}}}
	for _, ds := range datasets {
		p, err := ProfileFor(ds, r.Scale)
		if err != nil {
			return nil, err
		}
		cfg, shards, test, groupOf, err := p.Materialize(r.Seed)
		if err != nil {
			return nil, err
		}
		net, err := p.Model()
		if err != nil {
			return nil, err
		}
		frees := freeloaderIDs(p.Clients)
		cfg.Adversaries = []adversary.Spec{adversary.Freeloaders(frees)}
		// Detection off: Table II observes α including freeloaders for the
		// whole run, without expelling anyone.
		taco := &alphaLog{TACO: core.New(core.Recommended())}
		if _, err := fl.Run(*cfg, taco, net, shards, test); err != nil {
			return nil, err
		}
		vals := make([][]float64, len(t.Rows))
		// Skip the first quarter of rounds: α needs a few rounds to reflect
		// the clients' data rather than the 0.1 initialization.
		for _, alphas := range taco.rounds[len(taco.rounds)/4:] {
			for id, alpha := range alphas {
				row := min(groupOf[id], 2) // Group A, B or C
				if slices.Contains(frees, id) {
					row = 3
				}
				vals[row] = append(vals[row], alpha)
			}
		}
		for i, v := range vals {
			mean, std := metrics.MeanStd(v)
			t.Rows[i] = append(t.Rows[i], fmt.Sprintf("%.2f±%.2f", mean, std))
		}
	}
	t.Notes = []string{
		"paper shape: α rises with label diversity (A < B < C) and freeloaders stand far above",
		"all honest groups (paper: 0.75-0.88), enabling threshold detection (Eq. 10)."}
	return []Artifact{t}, nil
}

// alphaLog is TACO that copies every client's α after each Aggregate: the
// per-round snapshots Table II averages over. Its runs take no checkpoint,
// so no rollback rewinds the log.
type alphaLog struct {
	*core.TACO
	rounds [][]float64
}

func (a *alphaLog) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	a.TACO.Aggregate(s, updates)
	a.rounds = append(a.rounds, a.Alphas())
}
