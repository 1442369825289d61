package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// maxPool2d is a non-overlapping k×k max pooling layer. The winning input
// index per output cell is recorded in scratch for the backward pass.
type maxPool2d struct {
	in  Shape
	out Shape
	k   int
}

// MaxPool2D appends k×k max pooling with stride k. The spatial extent must
// be divisible by k.
func (b *Builder) MaxPool2D(k int) *Builder {
	in := b.cur()
	if k <= 0 {
		return b.add(nil, fmt.Errorf("nn: MaxPool2D window %d must be positive", k))
	}
	if in.H%k != 0 || in.W%k != 0 {
		return b.add(nil, fmt.Errorf("nn: MaxPool2D window %d does not divide input %v", k, in))
	}
	return b.add(&maxPool2d{
		in:  in,
		out: Shape{C: in.C, H: in.H / k, W: in.W / k},
		k:   k,
	}, nil)
}

func (l *maxPool2d) name() string                   { return "maxpool2d" }
func (l *maxPool2d) inShape() Shape                 { return l.in }
func (l *maxPool2d) outShape() Shape                { return l.out }
func (l *maxPool2d) paramCount() int                { return 0 }
func (l *maxPool2d) initParams([]float64, *rng.RNG) {}

func maxPoolForward[F Float](l *maxPool2d, x, y []F, batch int, sc *scratch[F]) {
	inH, inW := l.in.H, l.in.W
	outH, outW := l.out.H, l.out.W
	inSize, outSize := l.in.Size(), l.out.Size()
	arg := sc.intBuf(batch * outSize)
	if l.k == 2 {
		maxPool2x2Forward(l, x, y, arg, batch)
		return
	}
	for s := 0; s < batch; s++ {
		xs := x[s*inSize : (s+1)*inSize]
		ys := y[s*outSize : (s+1)*outSize]
		args := arg[s*outSize : (s+1)*outSize]
		for c := 0; c < l.in.C; c++ {
			base := c * inH * inW
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					best := F(math.Inf(-1))
					bestIdx := -1
					for ky := 0; ky < l.k; ky++ {
						row := base + (oy*l.k+ky)*inW + ox*l.k
						for kx := 0; kx < l.k; kx++ {
							if v := xs[row+kx]; v > best {
								best = v
								bestIdx = row + kx
							}
						}
					}
					o := (c*outH+oy)*outW + ox
					ys[o] = best
					args[o] = bestIdx
				}
			}
		}
	}
}

// maxPool2x2Forward is the fast path for the ubiquitous 2×2 window: one
// vecmath.MaxPool2x2 call per sample, which treats the sample's planes as
// one stack of row pairs. Its window chain starts at the first tap instead
// of a −Inf sentinel but keeps the generic loop's first-wins order
// (row-major within the window), so on finite windows the value and the
// recorded argmax — and therefore the backward routing — are the generic
// loop's. The float64 body is branch-free: on activations the
// winner's position is random, and a compare-and-branch loop mispredicts
// about once per window.
func maxPool2x2Forward[F Float](l *maxPool2d, x, y []F, arg []int, batch int) {
	inSize, outSize := l.in.Size(), l.out.Size()
	for s := 0; s < batch; s++ {
		vecmath.MaxPool2x2(y[s*outSize:(s+1)*outSize], arg[s*outSize:(s+1)*outSize], x[s*inSize:(s+1)*inSize], l.in.W)
	}
}

func maxPoolBackward[F Float](l *maxPool2d, dy, dx []F, batch int, ints []int) {
	inSize, outSize := l.in.Size(), l.out.Size()
	arg := ints[:batch*outSize] // recorded by forward
	vecmath.Zero(dx[:batch*inSize])
	for s := 0; s < batch; s++ {
		dys := dy[s*outSize : (s+1)*outSize]
		dxs := dx[s*inSize : (s+1)*inSize]
		args := arg[s*outSize : (s+1)*outSize]
		for o, g := range dys {
			dxs[args[o]] += g
		}
	}
}

// globalAvgPool reduces each channel's spatial map to its mean, producing a
// C-vector. Used by the ResNet-style model head.
type globalAvgPool struct {
	in Shape
}

// GlobalAvgPool appends a global average pooling layer.
func (b *Builder) GlobalAvgPool() *Builder {
	return b.add(&globalAvgPool{in: b.cur()}, nil)
}

func (l *globalAvgPool) name() string                   { return "gavgpool" }
func (l *globalAvgPool) inShape() Shape                 { return l.in }
func (l *globalAvgPool) outShape() Shape                { return Vec(l.in.C) }
func (l *globalAvgPool) paramCount() int                { return 0 }
func (l *globalAvgPool) initParams([]float64, *rng.RNG) {}

func gavgForward[F Float](l *globalAvgPool, x, y []F, batch int) {
	hw := l.in.H * l.in.W
	inSize := l.in.Size()
	inv := F(1.0 / float64(hw))
	for s := 0; s < batch; s++ {
		xs := x[s*inSize : (s+1)*inSize]
		ys := y[s*l.in.C : (s+1)*l.in.C]
		for c := 0; c < l.in.C; c++ {
			var sum F
			for i := c * hw; i < (c+1)*hw; i++ {
				sum += xs[i]
			}
			ys[c] = sum * inv
		}
	}
}

func gavgBackward[F Float](l *globalAvgPool, dy, dx []F, batch int) {
	hw := l.in.H * l.in.W
	inSize := l.in.Size()
	inv := F(1.0 / float64(hw))
	for s := 0; s < batch; s++ {
		dys := dy[s*l.in.C : (s+1)*l.in.C]
		dxs := dx[s*inSize : (s+1)*inSize]
		for c := 0; c < l.in.C; c++ {
			g := dys[c] * inv
			for i := c * hw; i < (c+1)*hw; i++ {
				dxs[i] = g
			}
		}
	}
}
