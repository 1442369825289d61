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
// offset table the packing gathers over and, for a layer whose input
// gradient is read, its transpose, which the adjoint gathers over.
type conv2d struct {
	in          Shape
	out         Shape
	outC        int
	k           int
	stride, pad int
	patches     vecmath.GatherTable
	adjoint     vecmath.SumTable // zero for the network's first layer
}

// Conv2D appends a convolution with outC output channels, k×k kernels, the
// given stride, and symmetric zero padding pad.
func (b *Builder) Conv2D(outC, k, stride, pad int) *Builder {
	in := b.cur()
	l, err := newConv2D(in, outC, k, stride, pad, len(b.layers) > 0)
	return b.add(l, err)
}

// newConv2D builds the layer and its packing table, and the table's
// transpose when inputGrad is set: only a layer after the first has its
// input gradient read.
func newConv2D(in Shape, outC, k, stride, pad int, inputGrad bool) (*conv2d, error) {
	if outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: Conv2D(outC=%d, k=%d, stride=%d, pad=%d) invalid", outC, k, stride, pad)
	}
	oh := (in.H+2*pad-k)/stride + 1
	ow := (in.W+2*pad-k)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: Conv2D kernel %d does not fit input %v with stride %d pad %d", k, in, stride, pad)
	}
	l := &conv2d{
		in:      in,
		out:     Shape{C: outC, H: oh, W: ow},
		outC:    outC,
		k:       k,
		stride:  stride,
		pad:     pad,
		patches: vecmath.NewGatherTable(newPatchTable(in.C, in.H, in.W, k, stride, pad, oh, ow)),
	}
	if inputGrad {
		l.adjoint = l.patches.Adjoint(in.Size())
	}
	return l, nil
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

// newPatchTable is the im2col lowering of one convolution geometry,
// resolved once: entry r·N+p is the offset within a sample's input volume
// (inC×inH×inW, row-major) that patch row r = (ic·k+ky)·k+kx reads at
// output position p = oy·outW+ox. A tap that falls in the zero padding
// holds the volume's size, one past its last element. Stride and padding
// cost nothing per call. The adjoint's transpose lists the entries that
// read each input element in ascending order, the order of the definition
// — row by row, position by position — which fixes the order of every sum
// col2im forms. The table depends on the geometry only, so one serves every
// engine at either precision.
func newPatchTable(inC, inH, inW, k, stride, pad, outH, outW int) []int32 {
	t := make([]int32, 0, inC*k*k*outH*outW)
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
// taps gather like any other and the gather has no branch.
func im2col[F Float](t vecmath.GatherTable, dst, x, staged []F) {
	staged[copy(staged, x)] = 0
	vecmath.Gather(dst[:t.Len()], staged, t)
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
	t := vecmath.NewGatherTable(newPatchTable(inC, inH, inW, k, stride, pad, outH, outW))
	im2col(t, dst, x, make([]F, len(x)+1))
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
		// ys is outC×N row-major, exactly the GEMM output layout, and
		// starts from each channel's bias.
		vecmath.GemmBias(ys, w, col, bias, l.outC, kp, n, true)
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
		// One element past the K×N matrix: the zero slot the adjoint's
		// padding slots read.
		dcol = sc.floatBuf(kp*n + 1)
	}
	for s := 0; s < batch; s++ {
		col := cols[s*kp*n : (s+1)*kp*n]
		dys := dy[s*outSize : (s+1)*outSize]
		// dW += dY·colᵀ (outC×N · N×K).
		vecmath.GemmABT(dw, dys, col, l.outC, n, kp, true)
		// db[oc] += Σ over output positions of dY[oc].
		addRowSums(db, dys, n)
		if dx == nil {
			continue
		}
		// dcol = Wᵀ·dY (K×outC · outC×N), then col2im: each dX element
		// is set to the sum of the dcol entries that read it.
		vecmath.GemmATB(dcol[:kp*n], w, dys, l.outC, kp, n, false)
		vecmath.GatherSum(dx[s*inSize:(s+1)*inSize], dcol, l.adjoint)
	}
}
