package core

import (
	"io"

	"repro/internal/ckpt"
	"repro/internal/fl"
)

// Checkpoint hooks (DESIGN.md §8). TACO's cross-round state is what
// Algorithm 2 reads: the coefficient tracker (current α_i and the
// participants' mean α_t), the broadcast correction ∆^t, the output model
// z_t and the freeloader strike counts; the hybrids carry the tracker
// plus, for Scaffold(TACO), its control variates. None of it grows with
// the round count. Each algorithm describes its state once, in a walk
// that runs in both directions.

var (
	_ fl.StatefulAlgorithm = (*TACO)(nil)
	_ fl.StatefulAlgorithm = (*FedProxTACO)(nil)
	_ fl.StatefulAlgorithm = (*ScaffoldTACO)(nil)
)

// walk covers the tracker's coefficients and their mean, for a tracker
// created for the same fleet size. It is FedProx(TACO)'s whole state.
func (t *AlphaTracker) walk(c *ckpt.Codec) error {
	c.Section("alphas")
	c.F64s(t.alphas)
	c.Section("alpha mean")
	c.F64(&t.meanAlpha)
	return c.Err()
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
	return c.Err()
}

// SaveState implements fl.StatefulAlgorithm.
func (a *TACO) SaveState(w io.Writer) error { return a.walk(ckpt.Save(w)) }

// LoadState implements fl.StatefulAlgorithm.
func (a *TACO) LoadState(r io.Reader) error { return a.walk(ckpt.Load(r)) }

// SaveState implements fl.StatefulAlgorithm.
func (a *FedProxTACO) SaveState(w io.Writer) error { return a.tracker.walk(ckpt.Save(w)) }

// LoadState implements fl.StatefulAlgorithm.
func (a *FedProxTACO) LoadState(r io.Reader) error { return a.tracker.walk(ckpt.Load(r)) }

func (a *ScaffoldTACO) walk(c *ckpt.Codec) error {
	a.tracker.walk(c)
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
