package fl

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// CheckGoroutines lends the package's goroutine-leak check to the
// external (fl_test) serve tests.
var CheckGoroutines = checkGoroutines

// ObserveReplayWidth hooks every RunWorkerOpts started during the test
// and returns a reader of two sums over their slot pools, valid once the
// workers have returned: the extra slots grown for history replay, and
// the Adopt sub-batches that ran on more than one slot.
func ObserveReplayWidth(t *testing.T) func() (extra, widened int) {
	var mu sync.Mutex
	var pools []*slotPool
	workerObserve = func(p *slotPool) {
		mu.Lock()
		pools = append(pools, p)
		mu.Unlock()
	}
	t.Cleanup(func() { workerObserve = nil })
	return func() (extra, widened int) {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range pools {
			extra += max(0, p.width-p.slots)
			widened += p.widened
		}
		return extra, widened
	}
}

// RunLaterCounts is Run, or Resume when checkpoint is not nil, that also
// returns how many of the one-client rounds the run queued on its pool
// (slotPool.runLater) ran on the caller's slot and on the workers' slots.
func RunLaterCounts(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset, checkpoint []byte) (res *Result, helped, offloaded int, err error) {
	s, err := newScheduler(cfg, alg, net, shards, test)
	if err != nil {
		return nil, 0, 0, err
	}
	defer s.exec.close()
	if checkpoint != nil {
		if err := s.restore(checkpoint, true); err != nil {
			return nil, 0, 0, err
		}
	}
	if err := s.runAll(checkpoint != nil); err != nil {
		return nil, 0, 0, err
	}
	return s.result(), s.pool.helped, s.pool.offloaded, nil
}
