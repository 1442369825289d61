package experiments

import (
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/simclock"
)

// The scenario studies go beyond the paper's artifacts: the scheduler,
// threat-model, codec and fleet-size axes, each against the methods below.

var (
	// scenarioMethods are the plain average, the uniform-correction method
	// the paper blames for over-correction, and TACO.
	scenarioMethods = methods("FedAvg", "Scaffold", "TACO")
	// scenarioData is the MLP at every scale; the CLI profiles add the CNN.
	scenarioData = Axis{{Label: "adult", Data: "adult"}, {Label: "fmnist", Data: "fmnist", MinScale: ScaleQuick}}
	// policies is the aggregation-policy axis of the scheduler studies.
	policies = levels("%v", []fl.AggregationPolicy{fl.PolicySync, fl.PolicyDeadline, fl.PolicyAsync},
		func(s *Setup, p fl.AggregationPolicy) { s.Config.Policy = p })
)

// straggler is the heterogeneous-client study: TACO against FedAvg and
// Scaffold on adult under the three named device fleets and all three
// aggregation policies, reporting final accuracy plus the scheduler's
// scenario metrics — cumulative modeled wall time, deadline drops, and
// update staleness.
var straggler = &Grid{
	ID:      "straggler",
	Title:   "Straggler study: device heterogeneity × aggregation policy (adult, final accuracy)",
	Columns: []string{"Fleet", "Method", "sync", "t_wall", "deadline", "drops", "async", "stale"},
	Rows: []Axis{levels("%s", simclock.FleetNames(), func(s *Setup, fleet string) {
		// The extreme fleet's availability period is one nominal round.
		s.Config.Devices = must(simclock.FleetByName(fleet, s.Profile.Clients, s.nominal(), s.Seed))
	}), scenarioMethods},
	Cols:   []Axis{datasets("adult"), policies},
	Mutate: func(s *Setup) { PolicyDefaults(&s.Config, s.nominal(), s.Profile.Clients) },
	Cell: func(c *Cell) []string {
		switch c.Config.Policy {
		case fl.PolicySync:
			wall := 0.0
			if n := len(c.Run.Rounds); n > 0 {
				wall = c.Run.Rounds[n-1].CumModeledSec
			}
			return []string{acc(c), report.Sec(wall)}
		case fl.PolicyDeadline:
			return []string{acc(c), fmt.Sprint(c.Run.Total(metrics.Cut))}
		default:
			return []string{acc(c), fmt.Sprintf("%.1f", c.Run.MeanStaleness())}
		}
	},
	Notes: []string{
		"t_wall: cumulative modeled seconds the synchronous server spends waiting for its",
		"slowest device; drops: clients cut past the 1.5×-nominal round deadline; stale:",
		"mean staleness (server versions) of buffered async updates. Expected shape: the",
		"sync column pays for stragglers in wall time, deadline trades them for drops, and",
		"async for staleness that the 1/√(1+s)-damped aggregation absorbs."},
}

// faults is the fault-injection study: TACO against FedAvg and Scaffold
// on adult while clients crash mid-round, drop their uploads, or run 4×
// slow, under all three aggregation policies. Every cell reports final
// accuracy and the recovery tally its policy pays with — degraded
// (sub-quorum) rounds for sync, permanently lost updates for deadline,
// and retry dispatches for async.
var faults = &Grid{
	ID:      "faults",
	Title:   "Fault study: client failures × aggregation policy (adult, final accuracy)",
	Columns: []string{"Faults", "Method", "sync", "degr", "deadline", "lost", "async", "retry"},
	Rows: []Axis{{
		{Label: "clean"},
		faultMix("crash20", "crash:0.2"),
		faultMix("drop20", "drop:0.2"),
		faultMix("slow30", "slow:0.3:4"),
		faultMix("crash+drop20", "crash:0.2,drop:0.2"),
	}, scenarioMethods},
	Cols: []Axis{datasets("adult"), policies},
	Mutate: func(s *Setup) {
		// The straggler study's 1.5× nominal deadline: slow-faulted
		// clients blow it.
		PolicyDefaults(&s.Config, s.nominal(), s.Profile.Clients)
		if len(s.Config.Faults) > 0 && s.Config.Policy != fl.PolicyAsync {
			// Commit rounds at half the dispatched cohort; anything below
			// is recorded as degraded.
			s.Config.Quorum = 0.5
		}
	},
	Cell: func(c *Cell) []string {
		tally := c.Run.TotalRetries()
		switch c.Config.Policy {
		case fl.PolicySync:
			tally = c.Run.DegradedRounds()
		case fl.PolicyDeadline:
			tally = c.Run.TotalDroppedUpdates()
		}
		return []string{acc(c), fmt.Sprint(tally)}
	},
	Notes: []string{
		"Fault mixes are per-dispatch probabilities: crash20 kills 20% of client",
		"dispatches mid-round, drop20 loses 20% of uploads in flight, slow30 stretches",
		"30% of dispatches 4×, crash+drop20 compounds the first two. degr: rounds",
		"committed below the 0.5 quorum after retries ran out; lost: updates the server",
		"never received; retry: re-dispatches the retry/backoff machinery issued.",
		"crash20 and drop20 coincide by construction: both consume the dispatch's",
		"modeled time and deliver nothing, and equal fracs draw identical outcomes from",
		"the same per-client fault stream."},
	Observe: faultsObserved,
}

// faultsObserved states, per policy, the best method at each fault level
// (ties joined by =, "all" when every method ties, ≡ when the best cell
// is at the prior), the cells at the prior, and the failed flights the
// runs settled: retried attempts plus retry chains that ran out.
func faultsObserved(rows [][]Level, cells [][]*Cell) (notes []string) {
	for j, top := range cells[0] {
		var levels []string
		atPrior, failed := 0, 0
		for i := 0; i < len(cells); {
			level, first := rows[i][0].Label, i
			for ; i < len(cells) && rows[i][0].Label == level; i++ {
				c := cells[i][j]
				if !c.Run.Diverged && c.atPrior(c.final()) {
					atPrior++
				}
				failed += c.Run.Total(metrics.Retried) + c.Run.Total(metrics.FaultDropped)
			}
			best, lead := leaders(cells[first:i], j)
			names := strings.Join(best, "=")
			if len(best) == i-first {
				names = "all"
			}
			if !lead.Run.Diverged && lead.atPrior(lead.final()) {
				names += "≡"
			}
			levels = append(levels, level+" "+names)
		}
		notes = append(notes,
			fmt.Sprintf("observed: %v best: %s", top.Config.Policy, strings.Join(levels, ", ")),
			fmt.Sprintf("observed: %v: %d/%d cells at the prior; %d failed flights settled", top.Config.Policy, atPrior, len(cells), failed))
	}
	return notes
}

// faultMix injects the failures of a -fault flag spec (fault.ParseFaults).
func faultMix(name, spec string) Level {
	specs := must(fault.ParseFaults(spec))
	return Level{Label: name, Set: func(s *Setup) { s.Config.Faults = specs }}
}

// attacks is the threat-model grid: every injector kind at a 30%
// corruption rate (40% for freeloaders, the paper's Table II setting),
// plus the clean baseline the degradation is measured against.
var attacks = Axis{
	{Label: "clean"},
	attack("labelflip", adversary.Spec{Kind: adversary.KindLabelFlip, Frac: 0.3}),
	attack("labelnoise", adversary.Spec{Kind: adversary.KindLabelNoise, Frac: 0.3, Scale: 0.8}),
	attack("signflip", adversary.Spec{Kind: adversary.KindSignFlip, Frac: 0.3}),
	attack("scale", adversary.Spec{Kind: adversary.KindScale, Frac: 0.3, Scale: 5}),
	attack("deltanoise", adversary.Spec{Kind: adversary.KindDeltaNoise, Frac: 0.3, Scale: 2}),
	attack("freeload", adversary.Spec{Kind: adversary.KindFreeloader, Frac: 0.4}),
	attack("sybil", adversary.Spec{Kind: adversary.KindSybil, Frac: 0.3, Scale: 2}),
}

func attack(name string, spec adversary.Spec) Level {
	return Level{Label: name, Set: func(s *Setup) { s.Config.Adversaries = []adversary.Spec{spec} }}
}

// accMass is acc plus, under attack, the mean per-round aggregation-weight
// mass the run granted the corrupt camp.
func accMass(c *Cell) []string {
	cell := acc(c)
	if len(c.Config.Adversaries) > 0 && !c.Run.Diverged {
		cell += fmt.Sprintf(" |%.2f", c.Run.MeanCorruptWeight())
	}
	return []string{cell}
}

// robustness is the threat-model study: the attack grid × aggregation
// rules, reporting each cell's final accuracy and the aggregation-weight
// mass the rule granted the corrupt camp, plus corrupt-client detection
// precision/recall for the two defenses — FoolsGold by weight suppression
// (cumulative weight below half the uniform share) and TACO by
// κ-threshold expulsion (Eq. 10).
var robustness = &Grid{
	ID:      "robustness",
	Title:   "Robustness: attack grid × aggregation rule (final accuracy | corrupt weight mass)",
	Columns: []string{"Attack", "Data", "FedAvg", "Scaffold", "FG", "TACO", "FG det P/R", "TACO det P/R"},
	Rows:    []Axis{attacks, scenarioData},
	Cols:    []Axis{methods("FedAvg", "Scaffold", "FG", "TACO")},
	Mutate: func(s *Setup) {
		s.TACO.DetectFreeloaders = true
		// The grid trims Rounds, so the paper's λ = T/5 default would
		// expel on a single suspicion; require half the budget instead.
		s.TACO.MaxStrikes = max(s.Profile.Rounds/2, 2)
	},
	Cell: accMass,
	// Detection is scored for the FG and TACO columns, the third and fourth.
	Tail: func(row []*Cell) []string {
		advs, n := row[0].Config.Adversaries, row[0].Profile.Clients
		if len(advs) == 0 {
			return []string{"—", "—"}
		}
		truth := flags(n, advs[0].Members(n))
		return []string{detectionCell(metrics.EvalDetection(suppressedClients(row[2].CumWeights), truth)),
			detectionCell(metrics.EvalDetection(expelled(row[3]), truth))}
	},
	Notes: []string{
		"cell: final accuracy | mean per-round aggregation-weight mass granted the corrupt",
		"camp (head-count share: 0.30, freeload 0.40). Expected shape: FedAvg/Scaffold grant",
		"attackers their full share; FoolsGold and TACO's tailored α-weights suppress the",
		"mass on direction-coherent attacks (signflip, sybil, freeload). Detection P/R:",
		"FoolsGold flags clients whose cumulative weight falls below half the uniform",
		"share; TACO flags by Eq. (10) expulsion."},
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

// flags marks ids among n clients.
func flags(n int, ids []int) []bool {
	f := make([]bool, n)
	for _, id := range ids {
		f[id] = true
	}
	return f
}

// expelled flags the clients the run expelled (TACO's Eq. 10).
func expelled(c *Cell) []bool {
	f := make([]bool, c.Profile.Clients)
	for id := range c.Expelled {
		f[id] = true
	}
	return f
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

// compression is the communication-efficiency study (DESIGN.md §7): the
// codec grid × aggregation rules, reporting each cell's final accuracy
// next to the uplink traffic and compression ratio the codec achieved —
// the accuracy-per-byte trade every codec is judged by. The lossy codecs
// run with error feedback (the engine always carries their residuals).
var compression = &Grid{
	ID:      "compression",
	Title:   "Compression: uplink codec × aggregation rule (final accuracy; uplink MiB, ratio)",
	Columns: []string{"Codec", "Data", "FedAvg", "Scaffold", "TACO", "Uplink", "Ratio"},
	Rows: []Axis{{
		{Label: "dense"},
		codec("topk1%", compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.01}),
		codec("topk10%", compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.10}),
		codec("int8", compress.Spec{Kind: compress.KindInt8}),
	}, scenarioData},
	Cols: []Axis{scenarioMethods},
	Cell: accCell,
	// The wire totals are a property of the codec and the participation
	// pattern, not the rule, so every run of a row reports the same ones —
	// except a diverged run, which halts early and undercounts.
	Tail: func(row []*Cell) []string {
		for _, c := range row {
			if !c.Run.Diverged {
				return []string{fmt.Sprintf("%.2f MiB", float64(c.Run.TotalUplinkBytes())/(1<<20)),
					fmt.Sprintf("%.1fx", c.Run.MeanCompressionRatio())}
			}
		}
		return []string{"—", "—"}
	},
	Notes: []string{
		"cells: final test accuracy per rule; Uplink/Ratio: total client→server bytes and",
		"dense-over-encoded ratio for the run. Top-k costs 12 B per kept coordinate (4 B",
		"index + 8 B value) → ~66x at 1%; int8 costs ~1 B per coordinate → ~8x. Error",
		"feedback carries each client's dropped mass into its next upload, which is what",
		"keeps the 1% cell convergent at all."},
}

func codec(name string, spec compress.Spec) Level {
	return Level{Label: name, Set: func(s *Setup) { s.Config.Compress = spec }}
}

// fedopt is the composable-aggregation study: the update-level attacks ×
// inner rules × server-side configurations (bare, the TFF adaptive
// zeroing+clipping stack, and the stack with FedAdam), reporting each
// cell's final accuracy, the weight mass the composed pipeline granted
// the corrupt camp, and how hard the stack worked (zeroed/clipped update
// totals for the stacked+adam column). The stack acts on update norms, so
// the magnitude attacks are its home turf; signflip probes that it does
// not harm direction-only attacks.
var fedopt = &Grid{
	ID:      "fedopt",
	Title:   "FedOpt: robust-aggregation stack × server optimizer × inner rule (final accuracy | corrupt weight mass)",
	Columns: []string{"Attack", "Data", "Alg", "bare", "+zeroing|clip", "+stack+adam", "zeroed/clipped"},
	Rows:    []Axis{{attacks[0], attacks[3], attacks[4], attacks[5]}, scenarioData, scenarioMethods},
	Cols: []Axis{{
		{Label: "bare"},
		{Label: "+zeroing|clip", Set: func(s *Setup) { s.Config.AggStack = zeroingClip }},
		{Label: "+stack+adam", Set: func(s *Setup) { s.Config.AggStack, s.Config.ServerOpt = zeroingClip, adam }},
	}},
	Cell: accMass,
	Tail: func(row []*Cell) []string {
		c := row[len(row)-1]
		return []string{fmt.Sprintf("%d/%d", c.Run.TotalZeroedUpdates(), c.Run.TotalClippedUpdates())}
	},
	Notes: []string{
		"cell: final accuracy | mean per-round aggregation-weight mass granted the corrupt",
		"camp (head-count share 0.30). Columns compose the same inner rule with the TFF",
		"adaptive zeroing+clipping stack and FedAdam (lr 0.1). Expected shape: the stack",
		"suppresses the magnitude attacks (scale, deltanoise) for every inner rule — corrupt",
		"mass drops below the head-count share as oversized updates are zeroed or clipped",
		"— while leaving the clean column close to bare. zeroed/clipped: totals for the",
		"stacked+adam run."},
}

var (
	zeroingClip = must(aggstack.ParseStack("zeroing|clip"))
	adam        = must(aggstack.ParseServerOpt("adam:0.1"))
)

// scale1k pushes the scalability study an order of magnitude past the
// paper's Table VII: one thousand Dirichlet-partitioned clients with 10%
// partial participation per round. The run is feasible because training
// memory is O(P·d) under the slot pool (DESIGN.md §5) — every client
// keeps only its shard, sampler and algorithm coefficients while idle.
var scale1k = &Grid{
	ID:      "scale1k",
	Title:   "Scale-1k: 1000 Dirichlet clients, 10% participation (final / best accuracy)",
	Columns: []string{"Method", "adult", "fmnist"},
	Rows:    []Axis{scenarioMethods},
	Cols:    []Axis{datasets("adult", "fmnist")},
	// 100 participants per round keeps total work near the 100-client
	// Table VII budget while the fleet is 10×.
	Mutate: func(s *Setup) { fleet(s, 1000, 1, 0.1) },
	Cell:   accBest,
	Notes: []string{
		"thousand-client regime: each client holds a handful of samples, so per-round",
		"client sampling dominates the signal; TACO's tailored coefficients must remain",
		"stable with ~100 fresh participants per round."},
}

// scale100k pushes it two orders of magnitude further: one hundred
// thousand clients built by tiling 100 Dirichlet shards 1000×
// (Profile.FleetMultiplier — data stays O(100) shards while the fleet is
// 100k client identities, each with its own sampling stream), at 0.1%
// participation so every round aggregates ~100 fresh participants. What
// it pins down is the server's fixed per-round overhead at fleet scale:
// participant selection, fault bookkeeping, and the uplink ledger all
// walk the full fleet every round, while training cost stays proportional
// to the participants.
var scale100k = &Grid{
	ID:      "scale100k",
	Title:   "Scale-100k: 100,000 tiled Dirichlet clients, 0.1% participation (final / best accuracy)",
	Columns: []string{"Method", "adult"},
	Rows:    []Axis{methods("FedAvg", "TACO")},
	Cols:    []Axis{datasets("adult")},
	Mutate:  func(s *Setup) { fleet(s, 100, 1000, 0.001) },
	Cell:    accBest,
	Notes: []string{
		"hundred-thousand-client regime: tiled shards mean replicas share bytes but not",
		"sampling streams; per-round cost is ~100 local rounds of training plus O(fleet)",
		"server bookkeeping, which is what the throughput benchmark tracks."},
}

// fleet splits the data Dir(0.3) over shards clients, tiles them tiles×
// into the fleet and samples frac of it a round; a client takes 4 local
// steps (3 at the bench scale).
func fleet(s *Setup, shards, tiles int, frac float64) {
	s.Config.ParticipationFraction = frac
	p := &s.Profile
	p.Clients, p.FleetMultiplier, p.Partition, p.DirPhi = shards, tiles, PartDirichlet, 0.3
	p.LocalSteps = 4
	if s.Scale == ScaleBench {
		p.LocalSteps = 3
	}
}

// accBest is a run's final and best accuracy, or "×" if it diverged.
func accBest(c *Cell) []string {
	if c.Run.Diverged {
		return []string{"×"}
	}
	return []string{c.pct(c.final()) + " / " + c.pct(c.best())}
}
