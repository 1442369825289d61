package fl

import (
	"repro/internal/dataset"
	"repro/internal/nn"
)

// evalTask is the evaluation job: the test accuracy of a model snapshot
// and the share of test predictions that go to the most-predicted class.
// Shard i counts test batches i, i+S, … on its own engine into its own
// integer tallies (nn.Engine.CountCorrect, whose batch bounds
// Engine.Accuracy's shards share), so the result is Engine.Accuracy's
// whichever runner takes which shard.
type evalTask struct {
	progress
	w      []float64 // the snapshot, written before the job is queued
	net    *nn.Network
	test   *dataset.Dataset
	batch  int
	shards []evalShard
}

// evalShard is one shard's class tallies, sized at setup, and its engine,
// built then for shard 0 and on first use for the rest.
type evalShard struct {
	eng     *nn.Engine[float64]
	classes []int // predictions per class
	correct int
}

// newEvalTask sizes an evaluation of test in at most shards shards.
func newEvalTask(net *nn.Network, test *dataset.Dataset, shards int) *evalTask {
	batch := min(256, max(1, test.Len()))
	e := &evalTask{w: make([]float64, net.NumParams()), net: net, test: test, batch: batch}
	e.shards = make([]evalShard, max(1, min(shards, (test.Len()+batch-1)/batch)))
	for i := range e.shards {
		e.shards[i].classes = make([]int, net.OutSize())
	}
	e.shards[0].eng = nn.NewEngine(net, batch)
	e.done = make(chan struct{}, 1)
	return e
}

// run counts shard i.
func (e *evalTask) run(i int, _ *slot) {
	sh := &e.shards[i]
	if sh.eng == nil {
		sh.eng = nn.NewEngine(e.net, e.batch)
	}
	clear(sh.classes)
	sh.correct = sh.eng.CountCorrect(e.w, e.test.X, e.test.Y, i, len(e.shards), sh.classes)
}

// result sums the shards' tallies into the accuracy and the top-class
// share; both are 0 for an empty test set.
func (e *evalTask) result() (acc, top float64) {
	correct, most := 0, 0
	for c := range e.shards[0].classes {
		sum := 0
		for i := range e.shards {
			sum += e.shards[i].classes[c]
		}
		most = max(most, sum)
	}
	for i := range e.shards {
		correct += e.shards[i].correct
	}
	n := float64(max(1, len(e.test.Y)))
	return float64(correct) / n, float64(most) / n
}
