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
// product. Stride and zero padding are resolved once per layer, into the
// offset table the packing and its adjoint walk.
type conv2d struct {
	in          Shape
	out         Shape
	outC        int
	k           int
	stride, pad int
	patches     patchTable
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
		in:      in,
		out:     Shape{C: outC, H: oh, W: ow},
		outC:    outC,
		k:       k,
		stride:  stride,
		pad:     pad,
		patches: newPatchTable(in.C, in.H, in.W, k, stride, pad, oh, ow),
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

// patchTable is the im2col lowering of one convolution geometry, resolved
// once: entry r·N+p is the offset within a sample's input volume
// (inC×inH×inW, row-major) that patch row r = (ic·k+ky)·k+kx reads at
// output position p = oy·outW+ox. A tap that falls in the zero padding
// holds the volume's size, one past its last element. Stride and padding
// cost nothing per call, and because the table is walked front to back
// both the packing and its adjoint touch elements in the order of the
// definition — row by row, position by position — which fixes the order of
// every sum col2im forms. It depends on the geometry only, so one table
// serves every engine at either precision.
type patchTable []int32

func newPatchTable(inC, inH, inW, k, stride, pad, outH, outW int) patchTable {
	t := make(patchTable, 0, inC*k*k*outH*outW)
	padding := int32(inC * inH * inW)
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ky
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride - pad + kx
						off := padding
						if iy >= 0 && iy < inH && ix >= 0 && ix < inW {
							off = int32((ic*inH+iy)*inW + ix)
						}
						t = append(t, off)
					}
				}
			}
		}
	}
	return t
}

// im2col writes the K×N patch matrix of the sample x into dst. staged, one
// element longer than x, receives x followed by a zero, so that padding
// taps gather like any other and the loop has no branch to mispredict.
// Kept out of line: inlined into convForward the loop spills its counter
// and both bases to the stack on every element.
//
//go:noinline
func im2col[F Float](t patchTable, dst, x, staged []F) {
	staged[copy(staged, x)] = 0
	dst = dst[:len(t)]
	for i, off := range t {
		dst[i] = staged[off]
	}
}

// col2im is the adjoint of im2col: it scatter-adds the K×N patch-gradient
// matrix dcol into the input-gradient volume dx, which the caller must
// have zeroed. Taps that read padding contribute nothing. Out of line for
// the same reason as im2col.
//
//go:noinline
func col2im[F Float](t patchTable, dx, dcol []F) {
	dcol = dcol[:len(t)]
	for i, off := range t {
		if int(off) < len(dx) {
			dx[off] += dcol[i]
		}
	}
}

// Im2col packs one sample's activation volume (inC×inH×inW, row-major)
// into the K×N patch matrix dst, where K = inC·k·k and N = outH·outW.
// Row r = (ic·k+ky)·k+kx of dst holds, for every output position
// (oy, ox) in column oy·outW+ox, the input element
// x[ic][oy·stride-pad+ky][ox·stride-pad+kx], or 0 where that index falls
// in the zero padding. It resolves the geometry on every call; a conv2d
// layer does so once, at construction.
func Im2col[F Float](dst, x []F, inC, inH, inW, k, stride, pad, outH, outW int) {
	x = x[:inC*inH*inW]
	im2col(newPatchTable(inC, inH, inW, k, stride, pad, outH, outW), dst, x, make([]F, len(x)+1))
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
	staged := sc.floatBuf(inSize + 1)
	for s := 0; s < batch; s++ {
		col := cols[s*kp*n : (s+1)*kp*n]
		im2col(l.patches, col, x[s*inSize:(s+1)*inSize], staged)
		ys := y[s*outSize : (s+1)*outSize]
		// ys is outC×N row-major, exactly the GEMM output layout.
		vecmath.Gemm(ys, w, col, l.outC, kp, n, false)
		vecmath.AddColVector(ys, bias, l.outC, n)
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
	var dcol []F
	if dx != nil {
		dcol = sc.floatBuf(kp * n)
		vecmath.Zero(dx[:batch*inSize])
	}
	for s := 0; s < batch; s++ {
		col := cols[s*kp*n : (s+1)*kp*n]
		dys := dy[s*outSize : (s+1)*outSize]
		// dW += dY·colᵀ (outC×N · N×K).
		vecmath.GemmABT(dw, dys, col, l.outC, n, kp, true)
		// db[oc] += Σ over output positions of dY[oc].
		for oc := 0; oc < l.outC; oc++ {
			db[oc] += sumF(dys[oc*n : (oc+1)*n])
		}
		if dx == nil {
			continue
		}
		// dcol = Wᵀ·dY (K×outC · outC×N), then scatter back to dX.
		vecmath.GemmATB(dcol, w, dys, l.outC, kp, n, false)
		col2im(l.patches, dx[s*inSize:(s+1)*inSize], dcol)
	}
}
