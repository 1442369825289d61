package core

import (
	"io"

	"repro/internal/ckpt"
	"repro/internal/fl"
)

// Checkpoint hooks (DESIGN.md §8). TACO's cross-round state is the
// coefficient tracker (current α_i and the per-round history behind
// Table II), the broadcast correction ∆^t, the output model z_t, the
// freeloader strike counts, and the round-mean coefficient; the hybrids
// carry subsets plus Scaffold-style control variates. Each algorithm
// describes its state once, in a walk that runs in both directions.

var (
	_ fl.StatefulAlgorithm = (*TACO)(nil)
	_ fl.StatefulAlgorithm = (*FedProxTACO)(nil)
	_ fl.StatefulAlgorithm = (*ScaffoldTACO)(nil)
)

// walk covers the tracker's coefficients and history, for a tracker
// created for the same fleet size. The history grows by one row a round,
// so its row count is data; on load the rows are allocated one at a time
// as their values arrive.
func (t *AlphaTracker) walk(c *ckpt.Codec) {
	c.Section("alphas")
	c.F64s(t.alphas)
	c.Section("alpha history")
	n := len(t.history)
	c.Int(&n)
	if n < 0 || n > ckpt.MaxElems {
		c.Failf("%d rows out of range", n)
		return
	}
	if c.Loading() {
		t.history = t.history[:0]
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Loading() {
			t.history = append(t.history, make([]float64, len(t.alphas)))
		}
		c.F64s(t.history[i])
	}
}

func (a *TACO) walk(c *ckpt.Codec) error {
	a.tracker.walk(c)
	c.Section("taco corr")
	c.F64s(a.corr)
	c.Section("taco z")
	c.Row(&a.z, len(a.corr))
	c.Section("taco strikes")
	c.ExpectLen(len(a.strikes), "strike counts")
	for i := range a.strikes {
		c.Int(&a.strikes[i])
	}
	c.Section("taco mean")
	c.F64(&a.mean)
	return c.Err()
}

// SaveState implements fl.StatefulAlgorithm.
func (a *TACO) SaveState(w io.Writer) error { return a.walk(ckpt.Save(w)) }

// LoadState implements fl.StatefulAlgorithm.
func (a *TACO) LoadState(r io.Reader) error { return a.walk(ckpt.Load(r)) }

func (a *FedProxTACO) walk(c *ckpt.Codec) error {
	a.tracker.walk(c)
	c.Section("fedprox(taco) mean")
	c.F64(&a.mean)
	return c.Err()
}

// SaveState implements fl.StatefulAlgorithm.
func (a *FedProxTACO) SaveState(w io.Writer) error { return a.walk(ckpt.Save(w)) }

// LoadState implements fl.StatefulAlgorithm.
func (a *FedProxTACO) LoadState(r io.Reader) error { return a.walk(ckpt.Load(r)) }

func (a *ScaffoldTACO) walk(c *ckpt.Codec) error {
	a.tracker.walk(c)
	c.Section("scaffold(taco) mean")
	c.F64(&a.mean)
	c.Section("scaffold(taco) c")
	c.F64s(a.c)
	c.Section("scaffold(taco) ci")
	c.Rows(a.ci, a.d)
	for i, ci := range a.ci {
		// The frozen round correction is recomputed at BeginLocal; only
		// its allocation pairs with ci.
		switch {
		case ci == nil:
			a.corr[i] = nil
		case a.corr[i] == nil:
			a.corr[i] = make([]float64, a.d)
		}
	}
	return c.Err()
}

// SaveState implements fl.StatefulAlgorithm.
func (a *ScaffoldTACO) SaveState(w io.Writer) error { return a.walk(ckpt.Save(w)) }

// LoadState implements fl.StatefulAlgorithm.
func (a *ScaffoldTACO) LoadState(r io.Reader) error { return a.walk(ckpt.Load(r)) }
