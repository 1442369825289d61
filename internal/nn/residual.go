package nn

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// residualBlock is the basic ResNet unit adapted to this substrate:
//
//	out = ReLU( conv2(ReLU(conv1(x))) + x )
//
// with two channel-preserving 3×3 convolutions (stride 1, pad 1). Batch
// normalization is omitted (see DESIGN.md); initialization is scaled down
// so deep stacks stay trainable without it.
type residualBlock struct {
	in    Shape
	conv1 *conv2d
	conv2 *conv2d
}

// Residual appends a two-convolution residual block that preserves the
// input shape.
func (b *Builder) Residual() *Builder {
	in := b.cur()
	c1, err := newConv2D(in, in.C, 3, 1, 1)
	if err != nil {
		return b.add(nil, fmt.Errorf("nn: Residual: %w", err))
	}
	c2, err := newConv2D(in, in.C, 3, 1, 1)
	if err != nil {
		return b.add(nil, fmt.Errorf("nn: Residual: %w", err))
	}
	return b.add(&residualBlock{in: in, conv1: c1, conv2: c2}, nil)
}

func (l *residualBlock) name() string    { return "residual" }
func (l *residualBlock) inShape() Shape  { return l.in }
func (l *residualBlock) outShape() Shape { return l.in }
func (l *residualBlock) paramCount() int { return l.conv1.paramCount() + l.conv2.paramCount() }

func (l *residualBlock) initParams(params []float64, r *rng.RNG) {
	p1 := l.conv1.paramCount()
	l.conv1.initParams(params[:p1], r)
	l.conv2.initParams(params[p1:], r)
	// Down-scale the second convolution so each block starts close to the
	// identity map, the usual trick for residual nets without normalization.
	vecmath.Scale(0.3, params[p1:])
}

// scratch layout (5 regions of batch*size each):
// h1 | a1 | dz | da1 | dxc
// The two inner convolutions get child scratches so their im2col packings
// survive from forward to backward alongside this block's own buffer.
func residualForward[F Float](l *residualBlock, params, x, y []F, batch int, sc *scratch[F]) {
	size := l.in.Size()
	n := batch * size
	buf := sc.floatBuf(5 * n)
	h1, a1 := buf[:n], buf[n:2*n]
	p1 := l.conv1.paramCount()
	convForward(l.conv1, params[:p1], x, h1, batch, sc.child(0))
	vecmath.ReLU(a1, h1)
	convForward(l.conv2, params[p1:], a1, y, batch, sc.child(1))
	vecmath.Add(y[:n], y[:n], x[:n])
	vecmath.ReLU(y[:n], y[:n])
}

func residualBackward[F Float](l *residualBlock, params, x, y, dy, dx, dparams []F, batch int, sc *scratch[F]) {
	size := l.in.Size()
	n := batch * size
	buf := sc.floatBuf(5 * n)
	h1 := buf[:n] // a1 lives in buf[n:2n] but backward only needs h1's mask
	dz, da1, dxc := buf[2*n:3*n], buf[3*n:4*n], buf[4*n:]
	// Final ReLU: its pre-activation is positive exactly where y > 0.
	vecmath.ReLUGrad(dz, dy[:n], y[:n])
	p1 := l.conv1.paramCount()
	convBackward(l.conv2, params[p1:], dz, da1, dparams[p1:], batch, sc.child(1))
	// Inner ReLU mask from h1.
	vecmath.ReLUGrad(da1, da1, h1)
	if dx == nil {
		dxc = nil
	}
	convBackward(l.conv1, params[:p1], da1, dxc, dparams[:p1], batch, sc.child(0))
	if dx != nil {
		// Skip connection adds dz to the conv path's input gradient.
		vecmath.Add(dx[:n], dxc[:n], dz[:n])
	}
}
