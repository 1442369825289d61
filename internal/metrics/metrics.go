// Package metrics records per-round federated-learning results and derives
// the paper's two efficiency measures: round-to-accuracy (rounds needed to
// reach a target test accuracy) and time-to-accuracy (cumulative client
// computation time needed to reach it).
package metrics

import (
	"math"
	"slices"
)

// Outcome is the terminal fate of one dispatch attempt (DESIGN.md §8):
// the scheduler settles every flight it starts into exactly one, in the
// record of the server step the flight ended in. DupSuppressed is the
// exception: it counts the second copy of a delivered update.
type Outcome uint8

const (
	Aggregated       Outcome = iota // delivered and aggregated as uploaded
	Clipped                         // delivered, rescaled onto the clip ball, aggregated
	Zeroed                          // delivered and dropped past the zeroing bound
	Retried                         // failed (crash, drop, timeout) and dispatched again
	FaultDropped                    // the last attempt of its retry chain, failed
	Cut                             // delivered past the round deadline
	LostWithWorker                  // in flight when its worker was lost for good
	ExpelledInFlight                // its client was expelled while it flew (async)
	Abandoned                       // still in flight when the run ended (async)
	DupSuppressed                   // a second copy of a delivered update
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{"agg", "clipped", "zeroed", "retry", "lost", "cut", "worker-lost", "expelled", "abandoned", "dup"}

// String returns the outcome's short column name.
func (o Outcome) String() string { return outcomeNames[o] }

// Round is one communication round's outcome.
type Round struct {
	Index int
	// Accuracy is the global model's test accuracy after this round.
	Accuracy float64
	// TopClassShare is the share of the test predictions that go to the
	// most-predicted class: 1 for a model that predicts one class for
	// every input, whatever its accuracy.
	TopClassShare float64
	// TrainLoss is the mean local training loss reported by clients.
	TrainLoss float64
	// SlowestModeledSec is the modeled computation time of the slowest
	// client this round (the paper records the slowest client per round).
	SlowestModeledSec float64
	// SlowestMeasuredSec is the real measured Go time of the slowest client.
	SlowestMeasuredSec float64
	// CumModeledSec and CumMeasuredSec accumulate the slowest-client times
	// across rounds, matching Fig. 4's cumulative cost curves.
	CumModeledSec  float64
	CumMeasuredSec float64
	// MeanAlpha is the mean TACO correction coefficient this round
	// (0 for algorithms without one).
	MeanAlpha float64
	// MeanStaleness and MaxStaleness describe the staleness (in server
	// versions) of the updates aggregated this round; both are 0 under
	// the synchronous and deadline policies.
	MeanStaleness float64
	MaxStaleness  int
	// Degraded marks a round committed below the configured quorum of
	// delivered updates (including rounds that lost every update and
	// left the model unchanged). Never silent: the count rolls up via
	// Run.DegradedRounds.
	Degraded bool
	// Outcomes counts the flights that ended in this server step, one
	// entry per Outcome: every dispatch attempt lands in exactly one
	// entry, except DupSuppressed, which counts second copies.
	Outcomes [NumOutcomes]uint32
	// ClipNorm is the clip bound the stack applied this round (the
	// adaptive quantile-matched estimate, or the fixed bound); 0 when no
	// clip stage ran.
	ClipNorm float64
	// HonestWeight and CorruptWeight split the aggregation-weight mass
	// the server granted this round between honest and adversarial
	// clients (they sum to ~1 when the aggregation rule reports weights;
	// both are 0 in adversary-free runs). A defense is working when
	// CorruptWeight stays below the corrupt clients' head-count share.
	HonestWeight  float64
	CorruptWeight float64
	// UplinkBytes is the round's total client→server traffic: the
	// encoded payload sizes under a compression codec, 8d per update for
	// dense transport.
	UplinkBytes int64
	// CompressionRatio is the round's dense-over-encoded byte ratio
	// (1 for dense transport, 0 when no updates were aggregated).
	CompressionRatio float64
	// ReassignedDispatches counts in-flight dispatches re-sent after a
	// worker connection was lost this round — to a surviving worker that
	// adopted the dead worker's clients, or to the same worker after it
	// reconnected. 0 for in-process runs and failure-free wire rounds.
	ReassignedDispatches int
	// WorkerReconnects counts worker connections re-admitted this round
	// after a connection loss (the Hello resume token matched a known
	// worker index and its state was rebuilt by history replay).
	WorkerReconnects int
}

// Run is the full history of one FL training run.
type Run struct {
	Algorithm string
	Dataset   string
	Rounds    []Round
	// Diverged records a convergence failure (non-finite parameters),
	// the paper's "×" entries.
	Diverged      bool
	DivergedRound int
	// HaltRound and HaltReason surface why a run stopped before its
	// configured round budget (for example "diverged: non-finite
	// parameters" when no checkpoint was available to roll back to).
	// HaltReason is empty for runs that completed normally.
	HaltRound  int
	HaltReason string
	// RecoveredRounds counts rounds replayed after a simulated server
	// crash restored the last checkpoint; the replay is bit-identical,
	// so only time (and this counter) distinguishes a recovered run.
	RecoveredRounds int
	// Rollbacks counts divergence recoveries: rounds where non-finite
	// parameters were rolled back to the last checkpoint instead of
	// halting the run.
	Rollbacks int
}

// Append adds a round record, maintaining cumulative times.
func (r *Run) Append(rec Round) {
	if n := len(r.Rounds); n > 0 {
		rec.CumModeledSec = r.Rounds[n-1].CumModeledSec + rec.SlowestModeledSec
		rec.CumMeasuredSec = r.Rounds[n-1].CumMeasuredSec + rec.SlowestMeasuredSec
	} else {
		rec.CumModeledSec = rec.SlowestModeledSec
		rec.CumMeasuredSec = rec.SlowestMeasuredSec
	}
	r.Rounds = append(r.Rounds, rec)
}

// FinalAccuracy returns the last recorded test accuracy (0 when empty).
func (r *Run) FinalAccuracy() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	return r.Rounds[len(r.Rounds)-1].Accuracy
}

// BestAccuracy returns the highest test accuracy seen during the run.
func (r *Run) BestAccuracy() float64 {
	best := 0.0
	for _, rec := range r.Rounds {
		if rec.Accuracy > best {
			best = rec.Accuracy
		}
	}
	return best
}

// RoundsToAccuracy returns the 1-based round at which the run first reached
// the target accuracy, and whether it ever did.
func (r *Run) RoundsToAccuracy(target float64) (int, bool) {
	for _, rec := range r.Rounds {
		if rec.Accuracy >= target {
			return rec.Index + 1, true
		}
	}
	return 0, false
}

// ModeledTimeToAccuracy returns the cumulative modeled client time at which
// the run first reached the target accuracy.
func (r *Run) ModeledTimeToAccuracy(target float64) (float64, bool) {
	for _, rec := range r.Rounds {
		if rec.Accuracy >= target {
			return rec.CumModeledSec, true
		}
	}
	return math.Inf(1), false
}

// MeasuredTimeToAccuracy is ModeledTimeToAccuracy for real measured time.
func (r *Run) MeasuredTimeToAccuracy(target float64) (float64, bool) {
	for _, rec := range r.Rounds {
		if rec.Accuracy >= target {
			return rec.CumMeasuredSec, true
		}
	}
	return math.Inf(1), false
}

// sum adds f over every round of the run.
func sum[T int | int64 | float64](r *Run, f func(*Round) T) T {
	var total T
	for i := range r.Rounds {
		total += f(&r.Rounds[i])
	}
	return total
}

// Total sums one outcome over every round of the run.
func (r *Run) Total(o Outcome) int {
	return sum(r, func(rec *Round) int { return int(rec.Outcomes[o]) })
}

// TotalRetries sums the fault-triggered re-dispatches.
func (r *Run) TotalRetries() int { return r.Total(Retried) }

// TotalDroppedUpdates sums the updates that never reached an aggregate:
// retry chains that ran out, and dispatches lost with their worker.
func (r *Run) TotalDroppedUpdates() int { return r.Total(FaultDropped) + r.Total(LostWithWorker) }

// TotalDupUpdates sums the duplicate deliveries the server deduplicated.
func (r *Run) TotalDupUpdates() int { return r.Total(DupSuppressed) }

// TotalZeroedUpdates sums the updates the aggregation stack dropped for
// exceeding the zeroing bound.
func (r *Run) TotalZeroedUpdates() int { return r.Total(Zeroed) }

// TotalClippedUpdates sums the updates the aggregation stack rescaled
// onto the clip ball.
func (r *Run) TotalClippedUpdates() int { return r.Total(Clipped) }

// TotalReassignedDispatches sums the in-flight dispatches re-sent after
// worker connection losses across all rounds.
func (r *Run) TotalReassignedDispatches() int {
	return sum(r, func(rec *Round) int { return rec.ReassignedDispatches })
}

// TotalWorkerReconnects sums the worker re-admissions across all rounds.
func (r *Run) TotalWorkerReconnects() int {
	return sum(r, func(rec *Round) int { return rec.WorkerReconnects })
}

// DegradedRounds counts rounds committed below the delivery quorum.
func (r *Run) DegradedRounds() int {
	return sum(r, func(rec *Round) int {
		if rec.Degraded {
			return 1
		}
		return 0
	})
}

// MeanStaleness averages the per-round mean update staleness (0 when the
// run recorded no rounds or ran a policy without staleness).
func (r *Run) MeanStaleness() float64 {
	return r.meanWhere(func(*Round) bool { return true }, func(rec *Round) float64 { return rec.MeanStaleness })
}

// PeakStaleness returns the largest per-update staleness seen in any round.
func (r *Run) PeakStaleness() int {
	peak := 0
	for _, rec := range r.Rounds {
		if rec.MaxStaleness > peak {
			peak = rec.MaxStaleness
		}
	}
	return peak
}

// TotalUplinkBytes sums the per-round client→server traffic — the "bytes
// on wire" a codec is judged by.
func (r *Run) TotalUplinkBytes() int64 {
	return sum(r, func(rec *Round) int64 { return rec.UplinkBytes })
}

// meanWhere averages f over the rounds where keep holds (0 when none
// does).
func (r *Run) meanWhere(keep func(*Round) bool, f func(*Round) float64) float64 {
	var total float64
	n := 0
	for i := range r.Rounds {
		if rec := &r.Rounds[i]; keep(rec) {
			total += f(rec)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// MeanCompressionRatio averages the per-round compression ratios over
// the rounds that aggregated anything (0 when none did).
func (r *Run) MeanCompressionRatio() float64 {
	return r.meanWhere(func(rec *Round) bool { return rec.CompressionRatio != 0 },
		func(rec *Round) float64 { return rec.CompressionRatio })
}

// MeanCorruptWeight averages the corrupt aggregation-weight mass over the
// rounds that recorded a weight split (0 when none did — adversary-free
// runs or rules that report no weights).
func (r *Run) MeanCorruptWeight() float64 {
	return r.meanWhere(func(rec *Round) bool { return rec.HonestWeight != 0 || rec.CorruptWeight != 0 },
		func(rec *Round) float64 { return rec.CorruptWeight })
}

// Detection scores a defense's corrupt-client identification — TACO's
// κ-threshold expulsion (Eq. 10) or weight-suppression flagging for
// similarity defenses — against the ground-truth corrupt set.
type Detection struct {
	TP, FP, FN, TN int
}

// EvalDetection compares a flagged set against the ground truth (both
// indexed by client). The slices must have equal length.
func EvalDetection(flagged, truth []bool) Detection {
	var d Detection
	for i, f := range flagged {
		switch {
		case f && truth[i]:
			d.TP++
		case f && !truth[i]:
			d.FP++
		case !f && truth[i]:
			d.FN++
		default:
			d.TN++
		}
	}
	return d
}

// Precision returns TP/(TP+FP); by convention 1 when nothing was flagged
// (no false alarms were raised).
func (d Detection) Precision() float64 {
	if d.TP+d.FP == 0 {
		return 1
	}
	return float64(d.TP) / float64(d.TP+d.FP)
}

// Recall returns TP/(TP+FN); by convention 1 when there was nothing to
// detect.
func (d Detection) Recall() float64 {
	if d.TP+d.FN == 0 {
		return 1
	}
	return float64(d.TP) / float64(d.TP+d.FN)
}

// MedianSlowestModeledSec returns the median per-round modeled time of the
// slowest client, the statistic shown by the paper's Fig. 5 box plots.
func (r *Run) MedianSlowestModeledSec() float64 {
	return median(r.collect(func(rec Round) float64 { return rec.SlowestModeledSec }))
}

// MedianSlowestMeasuredSec is the measured-time analogue.
func (r *Run) MedianSlowestMeasuredSec() float64 {
	return median(r.collect(func(rec Round) float64 { return rec.SlowestMeasuredSec }))
}

func (r *Run) collect(f func(Round) float64) []float64 {
	out := make([]float64, len(r.Rounds))
	for i, rec := range r.Rounds {
		out[i] = f(rec)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// MeanStd returns the mean and population standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	for _, v := range xs {
		d := v - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}
