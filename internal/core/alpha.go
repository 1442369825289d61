// Package core implements TACO (Algorithm 2 of the paper): tailored
// adaptive correction coefficients α_i^t (Eq. 7), the corrected local
// update (Eq. 8), α-weighted aggregation (Eq. 9), freeloader detection
// (Eq. 10), and the momentum-style final output z_t (Eq. 15). It also
// provides the TACO-enhanced hybrids FedProx(TACO) and Scaffold(TACO)
// evaluated in the paper's Fig. 6.
package core

import (
	"math"

	"repro/internal/fl"
	"repro/internal/vecmath"
)

// computeAlphasUpdates evaluates Eq. (7) for one round's updates:
//
//	α_i = (1 − ‖∆_i‖/Σ_j‖∆_j‖) · max(cos(∆_i, ∆̄), 0)
//
// where ∆̄ is the unweighted mean of the deltas, written into mean
// (len = d); norms and out hold one entry per update. The two factors
// implement the geometry of the paper's Fig. 3: clients whose update
// disagrees in direction with the crowd (small cosine) or is
// disproportionately large in magnitude get a small α — and therefore a
// large correction factor 1−α in Eq. (8).
//
// The updates are read through their payload-aware views: a sparse
// (top-k) upload contributes its mean mass via an O(k) scatter, its norm
// over the k kept values (the dropped coordinates are exact zeros), and
// its inner product via an O(k) gather against the mean. The mean's
// largest magnitude and rescaled square-sum are taken once per round, and
// a dense update's norm and cosine come from one pass over it
// (fl.NormsCosines). Degenerate uploads (all zero, or magnitudes beyond
// float64 range) carry no usable geometry and get α = 0.
func computeAlphasUpdates(updates []fl.Update, mean, norms, out []float64) {
	n := len(updates)
	if n == 0 {
		return
	}
	vecmath.Zero(mean)
	for i := range updates {
		updates[i].AddScaled(1/float64(n), mean)
	}
	// out holds the cosines until the α overwrite them.
	fl.NormsCosines(updates, mean, norms, out)
	var normSum float64
	for _, v := range norms {
		normSum += v
	}
	for i, cosine := range out {
		if normSum == 0 || math.IsInf(normSum, 0) || math.IsNaN(normSum) {
			out[i] = 0
			continue
		}
		if cosine < 0 {
			cosine = 0
		}
		out[i] = (1 - norms[i]/normSum) * cosine
	}
}

// AlphaTracker maintains per-client correction coefficients across rounds
// for TACO and the TACO-enhanced hybrids: the state Algorithm 2 reads,
// α_i^t (Eq. 7–10) and the participants' mean α_t (Eq. 14/15).
// Coefficients for clients that do not participate in a round (expelled)
// keep their last value.
type AlphaTracker struct {
	alphas []float64
	// meanAlpha is Eq. (14)'s α_t over the last update's participants.
	meanAlpha float64
	// delta, scratch and norms are reusable computeAlphasUpdates buffers:
	// the round's mean delta, the fresh estimates and the update norms.
	delta   []float64
	scratch []float64
	norms   []float64
}

// NewAlphaTracker creates a tracker for n clients of a numParams-sized
// model, starting every coefficient, and the mean, at initial (Algorithm
// 2 uses 0.1).
func NewAlphaTracker(n, numParams int, initial float64) *AlphaTracker {
	t := &AlphaTracker{
		alphas:    make([]float64, n),
		meanAlpha: initial,
		delta:     make([]float64, numParams),
		scratch:   make([]float64, n),
	}
	for i := range t.alphas {
		t.alphas[i] = initial
	}
	return t
}

// Update recomputes coefficients from the round's updates (Algorithm 2
// line 9) and their mean over the updates' clients (0 for none).
// Smoothing ∈ [0,1) blends the fresh estimate with the previous round's
// value: α ← s·α_old + (1−s)·α_new. 0 reproduces the paper's memoryless
// rule.
func (t *AlphaTracker) Update(updates []fl.Update, smoothing float64) {
	if cap(t.norms) < len(updates) {
		t.norms = make([]float64, len(updates))
	}
	// scratch is seeded to the client count but tracks the update count:
	// under buffered asynchrony one client can contribute several updates
	// to a single server step.
	if cap(t.scratch) < len(updates) {
		t.scratch = make([]float64, len(updates))
	}
	out := t.scratch[:len(updates)]
	computeAlphasUpdates(updates, t.delta, t.norms[:len(updates)], out)
	for i, u := range updates {
		t.alphas[u.Client] = smoothing*t.alphas[u.Client] + (1-smoothing)*out[i]
	}
	var sum float64
	for _, u := range updates {
		sum += t.alphas[u.Client]
	}
	t.meanAlpha = sum / float64(max(len(updates), 1))
}

// Alpha returns client i's current coefficient α_i^t.
func (t *AlphaTracker) Alpha(i int) float64 { return t.alphas[i] }

// Mean returns Eq. (14)'s α_t restricted to the last update's
// participants.
func (t *AlphaTracker) Mean() float64 { return t.meanAlpha }
