package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// conv2d is a 2-D convolution with square kernels, arbitrary stride, and
// symmetric zero padding. Weights are laid out [outC][inC][k][k] followed
// by one bias per output channel.
//
// Forward and backward are lowered onto the vecmath GEMM kernels via
// im2col/col2im (see DESIGN.md §2): each sample's input is packed into a
// K×N patch matrix (K = inC·k·k patch rows, N = outH·outW output
// positions), so the convolution itself is a dense outC×K×N matrix
// product. Stride and zero padding are resolved once per row in the
// packing step, which keeps every inner loop branch-free.
type conv2d struct {
	in          Shape
	out         Shape
	outC        int
	k           int
	stride, pad int
}

// Conv2D appends a convolution with outC output channels, k×k kernels, the
// given stride, and symmetric zero padding pad.
func (b *Builder) Conv2D(outC, k, stride, pad int) *Builder {
	in := b.cur()
	l, err := newConv2D(in, outC, k, stride, pad)
	return b.add(l, err)
}

func newConv2D(in Shape, outC, k, stride, pad int) (*conv2d, error) {
	if outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: Conv2D(outC=%d, k=%d, stride=%d, pad=%d) invalid", outC, k, stride, pad)
	}
	oh := (in.H+2*pad-k)/stride + 1
	ow := (in.W+2*pad-k)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: Conv2D kernel %d does not fit input %v with stride %d pad %d", k, in, stride, pad)
	}
	return &conv2d{
		in:     in,
		out:    Shape{C: outC, H: oh, W: ow},
		outC:   outC,
		k:      k,
		stride: stride,
		pad:    pad,
	}, nil
}

func (l *conv2d) name() string    { return "conv2d" }
func (l *conv2d) inShape() Shape  { return l.in }
func (l *conv2d) outShape() Shape { return l.out }
func (l *conv2d) paramCount() int { return l.outC*l.in.C*l.k*l.k + l.outC }

// patchSize is K, the im2col row count: one row per (inC, ky, kx) tap.
func (l *conv2d) patchSize() int { return l.in.C * l.k * l.k }

func (l *conv2d) initParams(params []float64, r *rng.RNG) {
	fanIn := l.in.C * l.k * l.k
	limit := math.Sqrt(2.0 / float64(fanIn)) // Kaiming-normal-ish scale, uniform draw
	nw := l.outC * fanIn
	for i := 0; i < nw; i++ {
		params[i] = (2*r.Float64() - 1) * limit
	}
	vecmath.Zero(params[nw:])
}

// validRange returns the [lo, hi) interval of output coordinates whose
// input coordinate o*stride-pad+koff lands inside [0, extent). Outside the
// interval the tap reads implicit zero padding. Resolving the interval
// here is what removes the per-element bounds checks from the pack loops.
func validRange(outExtent, extent, stride, pad, koff int) (lo, hi int) {
	lo = 0
	if d := pad - koff; d > 0 {
		lo = (d + stride - 1) / stride
	}
	hi = outExtent
	top := extent - 1 + pad - koff
	if top < 0 {
		return 0, 0
	}
	if h := top/stride + 1; h < hi {
		hi = h
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Im2col packs one sample's activation volume (inC×inH×inW, row-major)
// into the K×N patch matrix dst, where K = inC·k·k and N = outH·outW.
// Row r = (ic·k+ky)·k+kx of dst holds, for every output position
// (oy, ox) in column oy·outW+ox, the input element
// x[ic][oy·stride-pad+ky][ox·stride-pad+kx], or 0 where that index falls
// in the zero padding. It is exported for the micro-benchmarks and for
// downstream code that wants the packed patch matrix directly.
func Im2col[F Float](dst, x []F, inC, inH, inW, k, stride, pad, outH, outW int) {
	n := outH * outW
	r := 0
	for ic := 0; ic < inC; ic++ {
		plane := x[ic*inH*inW : (ic+1)*inH*inW]
		for ky := 0; ky < k; ky++ {
			oyLo, oyHi := validRange(outH, inH, stride, pad, ky)
			for kx := 0; kx < k; kx++ {
				row := dst[r*n : (r+1)*n]
				r++
				oxLo, oxHi := validRange(outW, inW, stride, pad, kx)
				if oxLo >= oxHi {
					vecmath.Zero(row)
					continue
				}
				// Zero only the padding margins — the rows above/below the
				// valid oy range and the left/right edges of valid rows —
				// so interior taps (the common case at pad≤1) are written
				// exactly once.
				vecmath.Zero(row[:oyLo*outW])
				vecmath.Zero(row[oyHi*outW:])
				for oy := oyLo; oy < oyHi; oy++ {
					iy := oy*stride - pad + ky
					src := plane[iy*inW:]
					vecmath.Zero(row[oy*outW : oy*outW+oxLo])
					vecmath.Zero(row[oy*outW+oxHi : (oy+1)*outW])
					seg := row[oy*outW+oxLo : oy*outW+oxHi]
					ix := oxLo*stride - pad + kx
					if stride == 1 {
						copy(seg, src[ix:ix+len(seg)])
						continue
					}
					for i := range seg {
						seg[i] = src[ix]
						ix += stride
					}
				}
			}
		}
	}
}

// col2im is the adjoint of im2col: it scatter-adds the K×N patch-gradient
// matrix dcol back into the activation-gradient volume dx (inC×inH×inW),
// which the caller must have zeroed. Taps that read zero padding in the
// forward pass contribute nothing, mirroring im2col's valid ranges. The
// segments are at most one image row (8 elements in every model here),
// shorter than one stride of vecmath.Add's float32 kernel, so both
// precisions run the plain loop rather than pay a call per segment.
func col2im[F Float](dx, dcol []F, inC, inH, inW, k, stride, pad, outH, outW int) {
	n := outH * outW
	r := 0
	for ic := 0; ic < inC; ic++ {
		plane := dx[ic*inH*inW : (ic+1)*inH*inW]
		for ky := 0; ky < k; ky++ {
			oyLo, oyHi := validRange(outH, inH, stride, pad, ky)
			for kx := 0; kx < k; kx++ {
				row := dcol[r*n : (r+1)*n]
				r++
				oxLo, oxHi := validRange(outW, inW, stride, pad, kx)
				if oxLo >= oxHi {
					continue
				}
				for oy := oyLo; oy < oyHi; oy++ {
					iy := oy*stride - pad + ky
					dst := plane[iy*inW:]
					seg := row[oy*outW+oxLo : oy*outW+oxHi]
					ix := oxLo*stride - pad + kx
					for i := range seg {
						dst[ix] += seg[i]
						ix += stride
					}
				}
			}
		}
	}
}

func convForward[F Float](l *conv2d, params, x, y []F, batch int, sc *scratch[F]) {
	kp := l.patchSize()
	n := l.out.H * l.out.W
	w := params[:l.outC*kp]
	bias := params[l.outC*kp:]
	inSize := l.in.Size()
	outSize := l.out.Size()
	// One K×N patch matrix per sample, kept in sc.cols so backward can
	// reuse the packing for the dW and dX products.
	cols := sc.colBuf(batch * kp * n)
	for s := 0; s < batch; s++ {
		col := cols[s*kp*n : (s+1)*kp*n]
		Im2col(col, x[s*inSize:(s+1)*inSize], l.in.C, l.in.H, l.in.W, l.k, l.stride, l.pad, l.out.H, l.out.W)
		ys := y[s*outSize : (s+1)*outSize]
		// ys is outC×N row-major, exactly the GEMM output layout.
		vecmath.Gemm(ys, w, col, l.outC, kp, n, false)
		for oc := 0; oc < l.outC; oc++ {
			addConstF(bias[oc], ys[oc*n:(oc+1)*n])
		}
	}
}

func convBackward[F Float](l *conv2d, params, dy, dx, dparams []F, batch int, sc *scratch[F]) {
	kp := l.patchSize()
	n := l.out.H * l.out.W
	nw := l.outC * kp
	w := params[:nw]
	dw := dparams[:nw]
	db := dparams[nw:]
	inSize := l.in.Size()
	outSize := l.out.Size()
	cols := sc.colBuf(batch * kp * n) // packed by the preceding forward
	dcol := sc.floatBuf(kp * n)
	vecmath.Zero(dx[:batch*inSize])
	for s := 0; s < batch; s++ {
		col := cols[s*kp*n : (s+1)*kp*n]
		dys := dy[s*outSize : (s+1)*outSize]
		// dW += dY·colᵀ (outC×N · N×K).
		vecmath.GemmABT(dw, dys, col, l.outC, n, kp, true)
		// db[oc] += Σ over output positions of dY[oc].
		for oc := 0; oc < l.outC; oc++ {
			db[oc] += sumF(dys[oc*n : (oc+1)*n])
		}
		// dcol = Wᵀ·dY (K×outC · outC×N), then scatter back to dX.
		vecmath.GemmATB(dcol, w, dys, l.outC, kp, n, false)
		col2im(dx[s*inSize:(s+1)*inSize], dcol, l.in.C, l.in.H, l.in.W, l.k, l.stride, l.pad, l.out.H, l.out.W)
	}
}
