package fl

import (
	"sync"
	"testing"
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
