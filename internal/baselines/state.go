package baselines

import (
	"io"

	"repro/internal/ckpt"
	"repro/internal/fl"
)

// Checkpoint hooks (DESIGN.md §8). Each stateful baseline walks exactly
// the state that survives across rounds, once, for both directions;
// per-round scratch (frozen corrections, weight buffers, previous-iterate
// snapshots) is rebuilt at the next BeginLocal and is not captured.
// FedAvg, FedProx, and FoolsGold carry no cross-round state and need no
// hooks.

var (
	_ fl.StatefulAlgorithm = (*Scaffold)(nil)
	_ fl.StatefulAlgorithm = (*STEM)(nil)
	_ fl.StatefulAlgorithm = (*FedACG)(nil)
)

// pairScratch keeps a lazily allocated per-client scratch table in step
// with the state rows it accompanies: BeginLocal allocates both together
// and only looks at the state row, so a restored row needs its scratch
// (whose contents are recomputed at BeginLocal) and a cleared one drops
// it.
func pairScratch(rows, scratch [][]float64, d int) {
	for i, row := range rows {
		switch {
		case row == nil:
			scratch[i] = nil
		case scratch[i] == nil:
			scratch[i] = make([]float64, d)
		}
	}
}

// walk covers the server control variate and every materialized
// per-client variate (nil rows mark clients that have never trained).
func (a *Scaffold) walk(c *ckpt.Codec) error {
	c.Section("scaffold c")
	c.F64s(a.c)
	c.Section("scaffold ci")
	c.Rows(a.ci, a.d)
	pairScratch(a.ci, a.corr, a.d)
	return c.Err()
}

// SaveState implements fl.StatefulAlgorithm.
func (a *Scaffold) SaveState(w io.Writer) error { return a.walk(ckpt.Save(w)) }

// LoadState implements fl.StatefulAlgorithm.
func (a *Scaffold) LoadState(r io.Reader) error { return a.walk(ckpt.Load(r)) }

// walk covers the per-client momentum estimates (the within-round
// previous iterate is reseeded at BeginLocal).
func (a *STEM) walk(c *ckpt.Codec) error {
	c.Section("stem v")
	c.Rows(a.v, a.d)
	pairScratch(a.v, a.wPrev, a.d)
	return c.Err()
}

// SaveState implements fl.StatefulAlgorithm.
func (a *STEM) SaveState(w io.Writer) error { return a.walk(ckpt.Save(w)) }

// LoadState implements fl.StatefulAlgorithm.
func (a *STEM) LoadState(r io.Reader) error { return a.walk(ckpt.Load(r)) }

// walk covers the server momentum.
func (a *FedACG) walk(c *ckpt.Codec) error {
	c.Section("fedacg m")
	c.F64s(a.m)
	return c.Err()
}

// SaveState implements fl.StatefulAlgorithm.
func (a *FedACG) SaveState(w io.Writer) error { return a.walk(ckpt.Save(w)) }

// LoadState implements fl.StatefulAlgorithm.
func (a *FedACG) LoadState(r io.Reader) error { return a.walk(ckpt.Load(r)) }
