package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/report"
	"repro/internal/simclock"
)

// faultConditions are the injected failure mixes of the fault study. The
// spec strings use the -fault flag syntax (fault.ParseFaults); "clean"
// is the fault-free control every other row is read against.
func faultConditions() []struct{ name, spec string } {
	return []struct{ name, spec string }{
		{"clean", ""},
		{"crash20", "crash:0.2"},
		{"drop20", "drop:0.2"},
		{"slow30", "slow:0.3:4"},
		{"crash+drop20", "crash:0.2,drop:0.2"},
	}
}

// faultAlgs are the methods compared under faults: the plain baseline,
// the uniform-correction method, and TACO.
func faultAlgs() []string { return []string{"FedAvg", "Scaffold", "TACO"} }

// Faults is the fault-injection scenario study (not a paper artifact):
// it trains TACO against FedAvg and Scaffold on adult while clients
// crash mid-round, drop their uploads, or run 4× slow, under all three
// aggregation policies. Every cell reports final accuracy; per policy
// the study adds the recovery tally that policy pays with — degraded
// (sub-quorum) rounds for sync, permanently lost updates for deadline,
// and retry dispatches for async. A "×" cell marks a diverged run.
func Faults(r *Runner) (*report.Table, error) {
	t := &report.Table{Title: "Fault study: client failures × aggregation policy (adult, final accuracy)"}
	t.Columns = []string{"Faults", "Method", "sync", "degr", "deadline", "lost", "async", "retry"}

	base, err := ProfileFor("adult", r.Scale)
	if err != nil {
		return nil, err
	}
	net, err := base.Model()
	if err != nil {
		return nil, err
	}
	nominal := simclock.RoundSeconds(net.GradFlops(base.BatchSize), base.LocalSteps, simclock.Plain())

	for _, cond := range faultConditions() {
		specs, err := fault.ParseFaults(cond.spec)
		if err != nil {
			return nil, err
		}
		for _, alg := range faultAlgs() {
			row := []string{cond.name, alg}
			for _, policy := range []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline, fl.PolicyAsync} {
				key := fmt.Sprintf("faults/%s/%s/%s", cond.name, alg, policy)
				res, err := r.RunOne(key, "adult", alg, func(cfg *fl.Config, _ fl.Algorithm) {
					cfg.Rounds = faultRounds(r.Scale)
					cfg.Policy = policy
					cfg.Faults = specs
					// The straggler study's 1.5× nominal deadline:
					// slow-faulted clients blow it.
					PolicyDefaults(cfg, nominal, base.Clients)
					if len(specs) > 0 && policy != fl.PolicyAsync {
						// Commit rounds at half the dispatched cohort;
						// anything below is recorded as degraded.
						cfg.Quorum = 0.5
					}
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
					row = append(row, acc, fmt.Sprintf("%d", run.DegradedRounds()))
				case fl.PolicyDeadline:
					row = append(row, acc, fmt.Sprintf("%d", run.TotalDroppedUpdates()))
				case fl.PolicyAsync:
					row = append(row, acc, fmt.Sprintf("%d", run.TotalRetries()))
				}
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"Fault mixes are per-dispatch probabilities: crash20 kills 20% of client",
		"dispatches mid-round, drop20 loses 20% of uploads in flight, slow30 stretches",
		"30% of dispatches 4×, crash+drop20 compounds the first two. degr: rounds",
		"committed below the 0.5 quorum after retries ran out; lost: updates the server",
		"never received; retry: re-dispatches the retry/backoff machinery issued.",
		"crash20 and drop20 coincide by construction: both consume the dispatch's",
		"modeled time and deliver nothing, and equal fracs draw identical outcomes from",
		"the same per-client fault stream. Expected shape: the retry budget recovers",
		"most transient faults and quorum keeps sub-cohort rounds honest instead of",
		"silent; correction-tracking methods (TACO) are more sensitive to thinned",
		"cohorts than plain averaging — a lost update biases the correction estimate —",
		"while Scaffold's per-client control variates hold up.")
	return t, nil
}

// faultRounds trims the study's round budget per scale: 45 runs share
// the table, so each stays small.
func faultRounds(s Scale) int {
	switch s {
	case ScaleBench:
		return 5
	case ScaleFull:
		return 20
	default:
		return 10
	}
}
