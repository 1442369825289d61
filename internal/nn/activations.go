package nn

import (
	"math"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// relu applies y = max(0, x) elementwise; shape-preserving.
type relu struct {
	in Shape
}

// ReLU appends a rectified-linear activation.
func (b *Builder) ReLU() *Builder {
	return b.add(&relu{in: b.cur()}, nil)
}

func (l *relu) name() string                   { return "relu" }
func (l *relu) inShape() Shape                 { return l.in }
func (l *relu) outShape() Shape                { return l.in }
func (l *relu) paramCount() int                { return 0 }
func (l *relu) initParams([]float64, *rng.RNG) {}

// The ReLU bodies keep their type switch on measurement: the float32
// branches work on the value's own 32 bits, and writing them once for both
// precisions means widening through float64, whose CVTSS2SD/CVTSD2SS pair
// cost +19% on BenchmarkGradEval/adult-f32 (14.9 → 17.6 µs, min of 15
// alternating runs, DESIGN.md §10). The float64 branches stay the plain
// compare, which maps NaN to 0 — the behaviour the sync goldens pin.

func reluForward[F Float](x, y []F, n int) {
	switch xs := any(x).(type) {
	case []float32:
		// Branchless max(0, v) = (v + |v|)/2 — exact for every finite v,
		// and measurably faster than the compare on random-sign
		// activations, where the branch mispredicts half the time.
		ys := any(y).([]float32)
		for i := 0; i < n; i++ {
			v := xs[i]
			ys[i] = (v + math.Float32frombits(math.Float32bits(v)&^(1<<31))) * 0.5
		}
	default:
		for i := 0; i < n; i++ {
			if x[i] > 0 {
				y[i] = x[i]
			} else {
				y[i] = 0
			}
		}
	}
}

func reluBackward[F Float](x, dy, dx []F, n int) {
	switch xs := any(x).(type) {
	case []float32:
		// Branchless gate: for non-NaN x, x > 0 exactly when its bit
		// pattern read as int32 is positive (+0 is 0, negatives and -0
		// have the sign bit set), so `keep` is 1 iff x > 0 — the &^ term
		// handles -0, whose negation wraps. Multiplying dy's bits by
		// 0/1 passes dy through or yields +0 without a data-dependent
		// branch, which mispredicts on ~half of random-sign activations.
		dys := any(dy).([]float32)
		dxs := any(dx).([]float32)
		for i := 0; i < n; i++ {
			m := int32(math.Float32bits(xs[i]))
			keep := (uint32(-m) >> 31) &^ (uint32(m) >> 31)
			dxs[i] = math.Float32frombits(math.Float32bits(dys[i]) * keep)
		}
	default:
		for i := 0; i < n; i++ {
			if x[i] > 0 {
				dx[i] = dy[i]
			} else {
				dx[i] = 0
			}
		}
	}
}

// tanhLayer applies y = tanh(x) elementwise; shape-preserving. Used by the
// MLP head variants and available for recurrent models.
type tanhLayer struct {
	in Shape
}

// Tanh appends a hyperbolic-tangent activation.
func (b *Builder) Tanh() *Builder {
	return b.add(&tanhLayer{in: b.cur()}, nil)
}

func (l *tanhLayer) name() string                   { return "tanh" }
func (l *tanhLayer) inShape() Shape                 { return l.in }
func (l *tanhLayer) outShape() Shape                { return l.in }
func (l *tanhLayer) paramCount() int                { return 0 }
func (l *tanhLayer) initParams([]float64, *rng.RNG) {}

// tanhForward keeps its type switch because the two precisions reach
// different implementations: the float64 libm, and the AVX2 polynomial
// vecmath.Tanh32.
func tanhForward[F Float](x, y []F, n int) {
	switch xs := any(x).(type) {
	case []float32:
		vecmath.Tanh32(any(y).([]float32)[:n], xs[:n])
	default:
		for i := 0; i < n; i++ {
			y[i] = tanhF(x[i])
		}
	}
}

func tanhBackward[F Float](y, dy, dx []F, n int) {
	for i := 0; i < n; i++ {
		dx[i] = dy[i] * (1 - y[i]*y[i])
	}
}
