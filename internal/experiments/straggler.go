package experiments

import (
	"fmt"

	"repro/internal/fl"
	"repro/internal/report"
	"repro/internal/simclock"
)

// stragglerAlgs are the methods compared by the straggler study: the
// plain baseline, the uniform-correction method the paper blames for
// over-correction, and TACO.
func stragglerAlgs() []string { return []string{"FedAvg", "Scaffold", "TACO"} }

// Straggler is the heterogeneous-client scenario study (not a paper
// artifact): it trains TACO against FedAvg and Scaffold on adult under
// the three named device fleets and all three aggregation policies,
// reporting final accuracy plus the scheduler's scenario metrics —
// cumulative modeled wall time, deadline drops, and update staleness.
func Straggler(r *Runner) (*report.Table, error) {
	t := &report.Table{Title: "Straggler study: device heterogeneity × aggregation policy (adult, final accuracy)"}
	t.Columns = []string{"Fleet", "Method", "sync", "t_wall", "deadline", "drops", "async", "stale"}

	base, err := ProfileFor("adult", r.Scale)
	if err != nil {
		return nil, err
	}
	// One nominal modeled round anchors the deadline and the extreme
	// fleet's availability period.
	net, err := base.Model()
	if err != nil {
		return nil, err
	}
	nominal := simclock.RoundSeconds(net.GradFlops(base.BatchSize), base.LocalSteps, simclock.Plain())

	for _, fleetName := range simclock.FleetNames() {
		fleet, err := simclock.FleetByName(fleetName, base.Clients, nominal, r.Seed)
		if err != nil {
			return nil, err
		}
		for _, alg := range stragglerAlgs() {
			row := []string{fleetName, alg}
			var syncWall float64
			for _, policy := range []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline, fl.PolicyAsync} {
				key := fmt.Sprintf("straggler/%s/%s/%s", fleetName, alg, policy)
				res, err := r.RunOne(key, "adult", alg, func(cfg *fl.Config, _ fl.Algorithm) {
					cfg.Rounds = stragglerRounds(r.Scale)
					cfg.Devices = fleet
					cfg.Policy = policy
					PolicyDefaults(cfg, nominal, base.Clients)
				})
				if err != nil {
					return nil, err
				}
				run := res.Run
				acc := "×"
				if !run.Diverged {
					acc = report.Pct(run.FinalAccuracy())
				}
				switch policy {
				case fl.PolicySync:
					if n := len(run.Rounds); n > 0 {
						syncWall = run.Rounds[n-1].CumModeledSec
					}
					row = append(row, acc, report.Sec(syncWall))
				case fl.PolicyDeadline:
					row = append(row, acc, fmt.Sprintf("%d", run.TotalDropped()))
				case fl.PolicyAsync:
					row = append(row, acc, fmt.Sprintf("%.1f", run.MeanStaleness()))
				}
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"t_wall: cumulative modeled seconds the synchronous server spends waiting for its",
		"slowest device; drops: clients cut past the 1.5×-nominal round deadline; stale:",
		"mean staleness (server versions) of buffered async updates. Expected shape: the",
		"sync column pays for stragglers in wall time, deadline trades them for drops, and",
		"async for staleness that the 1/√(1+s)-damped aggregation absorbs.")
	return t, nil
}

// stragglerRounds trims the study's round budget per scale: 27 runs share
// the table, so each stays small.
func stragglerRounds(s Scale) int {
	switch s {
	case ScaleBench:
		return 5
	case ScaleFull:
		return 20
	default:
		return 10
	}
}
