package metrics

import (
	"math"
	"testing"
	"unsafe"
)

func sampleRun() *Run {
	r := &Run{Algorithm: "X", Dataset: "d"}
	accs := []float64{0.2, 0.5, 0.7, 0.65, 0.8}
	for i, a := range accs {
		r.Append(Round{
			Index:              i,
			Accuracy:           a,
			SlowestModeledSec:  1.0,
			SlowestMeasuredSec: 0.5,
		})
	}
	return r
}

func TestAppendAccumulatesTime(t *testing.T) {
	r := sampleRun()
	last := r.Rounds[len(r.Rounds)-1]
	if last.CumModeledSec != 5 {
		t.Fatalf("CumModeledSec = %v, want 5", last.CumModeledSec)
	}
	if last.CumMeasuredSec != 2.5 {
		t.Fatalf("CumMeasuredSec = %v, want 2.5", last.CumMeasuredSec)
	}
}

func TestFinalAndBestAccuracy(t *testing.T) {
	r := sampleRun()
	if r.FinalAccuracy() != 0.8 {
		t.Fatalf("FinalAccuracy = %v", r.FinalAccuracy())
	}
	if r.BestAccuracy() != 0.8 {
		t.Fatalf("BestAccuracy = %v", r.BestAccuracy())
	}
	empty := &Run{}
	if empty.FinalAccuracy() != 0 || empty.BestAccuracy() != 0 {
		t.Fatal("empty run accuracies must be 0")
	}
}

func TestRoundsToAccuracy(t *testing.T) {
	r := sampleRun()
	rounds, ok := r.RoundsToAccuracy(0.7)
	if !ok || rounds != 3 {
		t.Fatalf("RoundsToAccuracy(0.7) = %d,%v want 3,true", rounds, ok)
	}
	if _, ok := r.RoundsToAccuracy(0.95); ok {
		t.Fatal("unreachable target must report false")
	}
}

func TestTimeToAccuracy(t *testing.T) {
	r := sampleRun()
	sec, ok := r.ModeledTimeToAccuracy(0.7)
	if !ok || sec != 3 {
		t.Fatalf("ModeledTimeToAccuracy = %v,%v want 3,true", sec, ok)
	}
	if sec, ok := r.ModeledTimeToAccuracy(0.99); ok || !math.IsInf(sec, 1) {
		t.Fatal("unreachable target must be +Inf,false")
	}
	msec, ok := r.MeasuredTimeToAccuracy(0.7)
	if !ok || msec != 1.5 {
		t.Fatalf("MeasuredTimeToAccuracy = %v, want 1.5", msec)
	}
}

func TestMedians(t *testing.T) {
	r := &Run{}
	for i, v := range []float64{3, 1, 2} {
		r.Append(Round{Index: i, SlowestModeledSec: v, SlowestMeasuredSec: v * 2})
	}
	if got := r.MedianSlowestModeledSec(); got != 2 {
		t.Fatalf("median modeled = %v, want 2", got)
	}
	if got := r.MedianSlowestMeasuredSec(); got != 4 {
		t.Fatalf("median measured = %v, want 4", got)
	}
	even := &Run{}
	for i, v := range []float64{4, 1, 3, 2} {
		even.Append(Round{Index: i, SlowestModeledSec: v})
	}
	if got := even.MedianSlowestModeledSec(); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
	if (&Run{}).MedianSlowestModeledSec() != 0 {
		t.Fatal("empty median must be 0")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Fatalf("mean = %v, want 5", mean)
	}
	if math.Abs(std-2) > 1e-12 {
		t.Fatalf("std = %v, want 2", std)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStd must be 0,0")
	}
}

func TestSchedulerColumns(t *testing.T) {
	r := &Run{}
	r.Append(Round{Index: 0, Outcomes: [NumOutcomes]uint32{Cut: 2}, MeanStaleness: 0, MaxStaleness: 0})
	r.Append(Round{Index: 1, Outcomes: [NumOutcomes]uint32{Cut: 1}, MeanStaleness: 1.5, MaxStaleness: 3})
	r.Append(Round{Index: 2, MeanStaleness: 0.5, MaxStaleness: 1})
	if got := r.Total(Cut); got != 3 {
		t.Fatalf("Total(Cut) = %d, want 3", got)
	}
	if got := r.MeanStaleness(); got != (0+1.5+0.5)/3 {
		t.Fatalf("MeanStaleness = %v", got)
	}
	if got := r.PeakStaleness(); got != 3 {
		t.Fatalf("PeakStaleness = %d, want 3", got)
	}
}

func TestSchedulerColumnsEmptyRun(t *testing.T) {
	r := &Run{}
	if r.Total(Cut) != 0 || r.MeanStaleness() != 0 || r.PeakStaleness() != 0 {
		t.Fatal("empty run must report zero scheduler metrics")
	}
}

// TestOutcomeRollups pins the named rollups to the outcome array: a lost
// update is a retry chain that ran out or a dispatch lost with its
// worker, and the other names read one outcome each.
func TestOutcomeRollups(t *testing.T) {
	var r Run
	for o := Outcome(0); o < NumOutcomes; o++ {
		var rec Round
		rec.Outcomes[o] = uint32(o) + 1
		r.Append(rec)
		r.Append(rec)
	}
	for o := Outcome(0); o < NumOutcomes; o++ {
		if got, want := r.Total(o), 2*(int(o)+1); got != want {
			t.Errorf("Total(%v) = %d, want %d", o, got, want)
		}
	}
	checks := []struct {
		name      string
		got, want int
	}{
		{"TotalRetries", r.TotalRetries(), r.Total(Retried)},
		{"TotalDroppedUpdates", r.TotalDroppedUpdates(), r.Total(FaultDropped) + r.Total(LostWithWorker)},
		{"TotalDupUpdates", r.TotalDupUpdates(), r.Total(DupSuppressed)},
		{"TotalZeroedUpdates", r.TotalZeroedUpdates(), r.Total(Zeroed)},
		{"TotalClippedUpdates", r.TotalClippedUpdates(), r.Total(Clipped)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	seen := map[string]bool{}
	for o := Outcome(0); o < NumOutcomes; o++ {
		if name := o.String(); name == "" || seen[name] {
			t.Errorf("outcome %d has name %q (empty or repeated)", o, name)
		} else {
			seen[name] = true
		}
	}
}

// TestRoundSize holds a round record to 200 B: every checkpoint carries
// the run's whole history of them.
func TestRoundSize(t *testing.T) {
	if got := unsafe.Sizeof(Round{}); got > 200 {
		t.Fatalf("metrics.Round is %d B, want at most 200", got)
	}
}

func TestMeanCorruptWeight(t *testing.T) {
	r := &Run{}
	// Rounds without a recorded weight split are excluded from the mean.
	r.Append(Round{Index: 0})
	r.Append(Round{Index: 1, HonestWeight: 0.7, CorruptWeight: 0.3})
	r.Append(Round{Index: 2, HonestWeight: 0.9, CorruptWeight: 0.1})
	if got := r.MeanCorruptWeight(); got < 0.1999 || got > 0.2001 {
		t.Fatalf("MeanCorruptWeight = %v, want 0.2", got)
	}
	if got := (&Run{}).MeanCorruptWeight(); got != 0 {
		t.Fatalf("empty run MeanCorruptWeight = %v", got)
	}
	clean := &Run{}
	clean.Append(Round{Index: 0})
	if got := clean.MeanCorruptWeight(); got != 0 {
		t.Fatalf("adversary-free run MeanCorruptWeight = %v", got)
	}
}

func TestEvalDetection(t *testing.T) {
	truth := []bool{true, true, false, false, true}
	flagged := []bool{true, false, true, false, true}
	d := EvalDetection(flagged, truth)
	if d.TP != 2 || d.FP != 1 || d.FN != 1 || d.TN != 1 {
		t.Fatalf("detection counts = %+v", d)
	}
	if p := d.Precision(); p < 0.666 || p > 0.667 {
		t.Fatalf("precision = %v, want 2/3", p)
	}
	if r := d.Recall(); r < 0.666 || r > 0.667 {
		t.Fatalf("recall = %v, want 2/3", r)
	}
	// Conventions: no flags raised -> precision 1; nothing to find ->
	// recall 1.
	none := EvalDetection([]bool{false, false}, []bool{true, false})
	if none.Precision() != 1 {
		t.Fatalf("no-flag precision = %v, want 1", none.Precision())
	}
	if none.Recall() != 0 {
		t.Fatalf("missed-all recall = %v, want 0", none.Recall())
	}
	empty := EvalDetection([]bool{false}, []bool{false})
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Fatalf("clean detection = P %v R %v, want 1/1", empty.Precision(), empty.Recall())
	}
}

func TestUplinkRollups(t *testing.T) {
	var r Run
	if r.TotalUplinkBytes() != 0 || r.MeanCompressionRatio() != 0 {
		t.Fatal("empty run must report zero uplink rollups")
	}
	r.Append(Round{Index: 0, UplinkBytes: 1000, CompressionRatio: 8})
	r.Append(Round{Index: 1, UplinkBytes: 500, CompressionRatio: 4})
	// A round that aggregated nothing contributes no ratio sample.
	r.Append(Round{Index: 2})
	if got := r.TotalUplinkBytes(); got != 1500 {
		t.Fatalf("TotalUplinkBytes = %d, want 1500", got)
	}
	if got := r.MeanCompressionRatio(); got != 6 {
		t.Fatalf("MeanCompressionRatio = %v, want 6", got)
	}
}

func TestFailoverRollups(t *testing.T) {
	var r Run
	if r.TotalReassignedDispatches() != 0 || r.TotalWorkerReconnects() != 0 {
		t.Fatal("empty run must report zero failover rollups")
	}
	r.Append(Round{Index: 0})
	r.Append(Round{Index: 1, ReassignedDispatches: 4, WorkerReconnects: 1})
	r.Append(Round{Index: 2, ReassignedDispatches: 2})
	if got := r.TotalReassignedDispatches(); got != 6 {
		t.Fatalf("TotalReassignedDispatches = %d, want 6", got)
	}
	if got := r.TotalWorkerReconnects(); got != 1 {
		t.Fatalf("TotalWorkerReconnects = %d, want 1", got)
	}
}
