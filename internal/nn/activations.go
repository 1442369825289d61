package nn

import (
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

// The passes are vecmath.ReLU and vecmath.ReLUGrad, called from the
// dispatch in generic.go: NaN, −0 and negative pre-activations give +0
// forward and gate the gradient to +0 backward, at either precision.

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
