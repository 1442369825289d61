package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// dense is a fully connected layer: y = x·W + b with W of size in×out.
// A non-vector input shape is implicitly flattened.
type dense struct {
	in  Shape
	out int
}

// Dense appends a fully connected layer with the given output width.
func (b *Builder) Dense(out int) *Builder {
	in := b.cur()
	if out <= 0 {
		return b.add(nil, fmt.Errorf("nn: Dense output width %d must be positive", out))
	}
	return b.add(&dense{in: in, out: out}, nil)
}

func (l *dense) name() string    { return "dense" }
func (l *dense) inShape() Shape  { return l.in }
func (l *dense) outShape() Shape { return Vec(l.out) }
func (l *dense) paramCount() int { return l.in.Size()*l.out + l.out }

func (l *dense) initParams(params []float64, r *rng.RNG) {
	// Glorot-uniform keeps activations well-scaled for tanh/softmax heads
	// and is close enough to Kaiming for the shallow ReLU stacks used here.
	fanIn, fanOut := l.in.Size(), l.out
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	w := params[:fanIn*fanOut]
	for i := range w {
		w[i] = (2*r.Float64() - 1) * limit
	}
	vecmath.Zero(params[fanIn*fanOut:])
}

func denseForward[F Float](l *dense, params, x, y []F, batch int) {
	in := l.in.Size()
	w := params[:in*l.out]
	bias := params[in*l.out:]
	vecmath.GemmBias(y[:batch*l.out], x[:batch*in], w, bias, batch, in, l.out, false)
}

func denseBackward[F Float](l *dense, params, x, dy, dx, dparams []F, batch int) {
	in := l.in.Size()
	w := params[:in*l.out]
	// dW += xᵀ·dy, folded straight into the gradient vector.
	vecmath.GemmATB(dparams[:in*l.out], x[:batch*in], dy[:batch*l.out], batch, in, l.out, true)
	// db += column sums of dy.
	vecmath.SumRowsAcc(dparams[in*l.out:], dy[:batch*l.out], batch, l.out)
	if dx == nil {
		return
	}
	// dx = dy·Wᵀ.
	vecmath.GemmABT(dx[:batch*in], dy[:batch*l.out], w, batch, l.out, in, false)
}
