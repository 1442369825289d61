package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// The frozen reference gradient: Engine.Gradient as it stood before the
// local step lost its non-GEMM work, in the spirit of fl's referenceRun.
// The ref* functions below are copies of the layer bodies that change
// rewrote — the compare-and-branch ReLU (and the float32 bit tricks), the
// validRange Im2col/col2im with their per-row copy and Zero calls, the
// dense, conv, LSTM and residual backward passes that always computed
// their input gradient, and the residual block's hand-inlined rectifiers
// — driven by referenceGradient, which still allocates and fills the
// input-gradient buffer of the first layer. The compare-and-branch 2×2
// max-pool and the conv bias loop are frozen too, as they stood before
// their vector bodies. Layers no change touched (dense/LSTM forward, the
// k×k pool and the pooling backward pass, tanh, the loss) and the vecmath
// products are shared with the engine. TestGradientMatchesFrozenReference
// requires the engine's gradient and loss to be bit-equal to this.
//
// Do not modernize anything below this line: the bodies are the oracle,
// and divergence from them is the bug.

func refForward[F Float](l layer, params, x, y []F, batch int, sc *scratch[F]) {
	switch l := l.(type) {
	case *relu:
		refReLUForward(x, y, batch*l.in.Size())
	case *conv2d:
		refConvForward(l, params, x, y, batch, sc)
	case *maxPool2d:
		if l.k != 2 {
			forward(l, params, x, y, batch, sc)
			break
		}
		refMaxPool2x2Forward(l, x, y, sc.intBuf(batch*l.out.Size()), batch)
	case *residualBlock:
		refResidualForward(l, params, x, y, batch, sc)
	default:
		forward(l, params, x, y, batch, sc)
	}
}

func refBackward[F Float](l layer, params, x, y, dy, dx, dparams []F, batch int, sc *scratch[F]) {
	switch l := l.(type) {
	case *dense:
		refDenseBackward(l, params, x, dy, dx, dparams, batch)
	case *relu:
		refReLUBackward(x, dy, dx, batch*l.in.Size())
	case *conv2d:
		refConvBackward(l, params, dy, dx, dparams, batch, sc)
	case *lstm:
		refLSTMBackward(l, params, x, dy, dx, dparams, batch, sc)
	case *residualBlock:
		refResidualBackward(l, params, x, y, dy, dx, dparams, batch, sc)
	default:
		backward(l, params, x, y, dy, dx, dparams, batch, sc)
	}
}

// referenceGradient is the parent's Engine.Gradient over freshly allocated
// buffers, dacts[0] included.
func referenceGradient[F Float](net *Network, params, x []F, labels []int, grad []F) float64 {
	batch := len(labels)
	nl := len(net.layers)
	acts := make([][]F, nl+1)
	dacts := make([][]F, nl+1)
	scr := make([]scratch[F], nl)
	acts[0] = x
	dacts[0] = make([]F, batch*net.in.Size())
	for i, l := range net.layers {
		acts[i+1] = make([]F, batch*l.outShape().Size())
		dacts[i+1] = make([]F, batch*l.outShape().Size())
	}
	for i, l := range net.layers {
		off := net.offsets[i]
		refForward(l, params[off:off+l.paramCount()], acts[i], acts[i+1], batch, &scr[i])
	}
	loss := SoftmaxCrossEntropy(acts[nl][:batch*net.classes], labels, net.classes, dacts[nl])
	vecmath.Zero(grad)
	for i := nl - 1; i >= 0; i-- {
		l := net.layers[i]
		off := net.offsets[i]
		p := params[off : off+l.paramCount()]
		dp := grad[off : off+l.paramCount()]
		refBackward(l, p, acts[i], acts[i+1], dacts[i+1], dacts[i], dp, batch, &scr[i])
	}
	return loss
}

func refReLUForward[F Float](x, y []F, n int) {
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

func refReLUBackward[F Float](x, dy, dx []F, n int) {
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

func refValidRange(outExtent, extent, stride, pad, koff int) (lo, hi int) {
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

func refIm2col[F Float](dst, x []F, inC, inH, inW, k, stride, pad, outH, outW int) {
	n := outH * outW
	r := 0
	for ic := 0; ic < inC; ic++ {
		plane := x[ic*inH*inW : (ic+1)*inH*inW]
		for ky := 0; ky < k; ky++ {
			oyLo, oyHi := refValidRange(outH, inH, stride, pad, ky)
			for kx := 0; kx < k; kx++ {
				row := dst[r*n : (r+1)*n]
				r++
				oxLo, oxHi := refValidRange(outW, inW, stride, pad, kx)
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

func refCol2im[F Float](dx, dcol []F, inC, inH, inW, k, stride, pad, outH, outW int) {
	n := outH * outW
	r := 0
	for ic := 0; ic < inC; ic++ {
		plane := dx[ic*inH*inW : (ic+1)*inH*inW]
		for ky := 0; ky < k; ky++ {
			oyLo, oyHi := refValidRange(outH, inH, stride, pad, ky)
			for kx := 0; kx < k; kx++ {
				row := dcol[r*n : (r+1)*n]
				r++
				oxLo, oxHi := refValidRange(outW, inW, stride, pad, kx)
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

func refConvForward[F Float](l *conv2d, params, x, y []F, batch int, sc *scratch[F]) {
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
		refIm2col(col, x[s*inSize:(s+1)*inSize], l.in.C, l.in.H, l.in.W, l.k, l.stride, l.pad, l.out.H, l.out.W)
		ys := y[s*outSize : (s+1)*outSize]
		// ys is outC×N row-major, exactly the GEMM output layout.
		vecmath.Gemm(ys, w, col, l.outC, kp, n, false)
		for oc := 0; oc < l.outC; oc++ {
			refAddConst(bias[oc], ys[oc*n:(oc+1)*n])
		}
	}
}

func refConvBackward[F Float](l *conv2d, params, dy, dx, dparams []F, batch int, sc *scratch[F]) {
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
		refCol2im(dx[s*inSize:(s+1)*inSize], dcol, l.in.C, l.in.H, l.in.W, l.k, l.stride, l.pad, l.out.H, l.out.W)
	}
}

func refDenseBackward[F Float](l *dense, params, x, dy, dx, dparams []F, batch int) {
	in := l.in.Size()
	w := params[:in*l.out]
	// dW += xᵀ·dy, folded straight into the gradient vector.
	vecmath.GemmATB(dparams[:in*l.out], x[:batch*in], dy[:batch*l.out], batch, in, l.out, true)
	// db += column sums of dy.
	vecmath.SumRowsAcc(dparams[in*l.out:], dy[:batch*l.out], batch, l.out)
	// dx = dy·Wᵀ.
	vecmath.GemmABT(dx[:batch*in], dy[:batch*l.out], w, batch, l.out, in, false)
}

func refLSTMBackward[F Float](l *lstm, params, x, dy, dx, dparams []F, batch int, sc *scratch[F]) {
	h := l.hidden
	h4 := 4 * h
	d := l.inDim
	nwx := d * h4
	nwh := h * h4
	wx := params[:nwx]
	wh := params[nwx : nwx+nwh]
	dwx := dparams[:nwx]
	dwh := dparams[nwx : nwx+nwh]
	db := dparams[nwx+nwh:]

	buf := sc.floatBuf(l.scratchSize(batch))
	recs := buf[:batch*l.steps*lstmRec*h]
	off := len(recs)
	xbuf := buf[off : off+batch*d]
	off += batch * d
	hbuf := buf[off : off+batch*h]
	off += batch * h
	dh := buf[off : off+batch*h]
	off += batch * h
	dc := buf[off : off+batch*h]
	off += batch * h
	dz := buf[off : off+batch*h4]
	off += batch * h4
	dxt := buf[off : off+batch*d]

	inSize := l.in.Size()
	copy(dh, dy[:batch*h])
	vecmath.Zero(dc)
	for t := l.steps - 1; t >= 0; t-- {
		gates, _, tc := recBlocks(recs, t, batch, h)
		var prevGates, prevC, prevTc []F
		if t > 0 {
			prevGates, prevC, prevTc = recBlocks(recs, t-1, batch, h)
		}
		// Elementwise pass: gate gradients dz and the running dc.
		for s := 0; s < batch; s++ {
			g := gates[s*h4 : (s+1)*h4]
			dzs := dz[s*h4 : (s+1)*h4]
			for j := 0; j < h; j++ {
				gi, gf, gg, go_ := g[j], g[h+j], g[2*h+j], g[3*h+j]
				tcj := tc[s*h+j]
				dhj := dh[s*h+j]
				do := dhj * tcj
				dcj := dc[s*h+j] + dhj*go_*(1-tcj*tcj)
				var cp F
				if prevC != nil {
					cp = prevC[s*h+j]
				}
				di := dcj * gg
				df := dcj * cp
				dg := dcj * gi
				dc[s*h+j] = dcj * gf // becomes dc_{t-1}
				dzs[j] = di * gi * (1 - gi)
				dzs[h+j] = df * gf * (1 - gf)
				dzs[2*h+j] = dg * (1 - gg*gg)
				dzs[3*h+j] = do * go_ * (1 - go_)
			}
		}
		vecmath.SumRowsAcc(db, dz, batch, h4)
		// dWx += X_tᵀ·dZ and dX_t = dZ·Wxᵀ.
		for s := 0; s < batch; s++ {
			copy(xbuf[s*d:(s+1)*d], x[s*inSize+t*d:s*inSize+(t+1)*d])
		}
		vecmath.GemmATB(dwx, xbuf, dz, batch, d, h4, true)
		vecmath.GemmABT(dxt, dz, wx, batch, h4, d, false)
		for s := 0; s < batch; s++ {
			copy(dx[s*inSize+t*d:s*inSize+(t+1)*d], dxt[s*d:(s+1)*d])
		}
		if t > 0 {
			// Recompute H_{t-1} = o_{t-1}*tanh(c_{t-1}) batch-major, then
			// dWh += H_{t-1}ᵀ·dZ and dh_{t-1} = dZ·Whᵀ.
			for s := 0; s < batch; s++ {
				for j := 0; j < h; j++ {
					hbuf[s*h+j] = prevGates[s*h4+3*h+j] * prevTc[s*h+j]
				}
			}
			vecmath.GemmATB(dwh, hbuf, dz, batch, h, h4, true)
			vecmath.GemmABT(dh, dz, wh, batch, h4, h, false)
		}
	}
}

func refResidualForward[F Float](l *residualBlock, params, x, y []F, batch int, sc *scratch[F]) {
	size := l.in.Size()
	n := batch * size
	buf := sc.floatBuf(5 * n)
	h1, a1 := buf[:n], buf[n:2*n]
	p1 := l.conv1.paramCount()
	refConvForward(l.conv1, params[:p1], x, h1, batch, sc.child(0))
	for i := 0; i < n; i++ {
		if h1[i] > 0 {
			a1[i] = h1[i]
		} else {
			a1[i] = 0
		}
	}
	refConvForward(l.conv2, params[p1:], a1, y, batch, sc.child(1))
	for i := 0; i < n; i++ {
		v := y[i] + x[i]
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
}

func refResidualBackward[F Float](l *residualBlock, params, x, y, dy, dx, dparams []F, batch int, sc *scratch[F]) {
	size := l.in.Size()
	n := batch * size
	buf := sc.floatBuf(5 * n)
	h1 := buf[:n] // a1 lives in buf[n:2n] but backward only needs h1's mask
	dz, da1, dxc := buf[2*n:3*n], buf[3*n:4*n], buf[4*n:]
	// Final ReLU: its pre-activation is positive exactly where y > 0.
	for i := 0; i < n; i++ {
		if y[i] > 0 {
			dz[i] = dy[i]
		} else {
			dz[i] = 0
		}
	}
	p1 := l.conv1.paramCount()
	refConvBackward(l.conv2, params[p1:], dz, da1, dparams[p1:], batch, sc.child(1))
	// Inner ReLU mask from h1.
	for i := 0; i < n; i++ {
		if h1[i] <= 0 {
			da1[i] = 0
		}
	}
	refConvBackward(l.conv1, params[:p1], da1, dxc, dparams[:p1], batch, sc.child(0))
	// Skip connection adds dz to the conv path's input gradient.
	vecmath.Add(dx[:n], dxc[:n], dz[:n])
}

func refAddConst[F Float](alpha F, x []F) {
	for i := range x {
		x[i] += alpha
	}
}

func refMaxPool2x2Forward[F Float](l *maxPool2d, x, y []F, arg []int, batch int) {
	inH, inW := l.in.H, l.in.W
	outH, outW := l.out.H, l.out.W
	inSize, outSize := l.in.Size(), l.out.Size()
	for s := 0; s < batch; s++ {
		xs := x[s*inSize : (s+1)*inSize]
		ys := y[s*outSize : (s+1)*outSize]
		args := arg[s*outSize : (s+1)*outSize]
		for c := 0; c < l.in.C; c++ {
			base := c * inH * inW
			for oy := 0; oy < outH; oy++ {
				r0 := base + (2*oy)*inW
				r1 := r0 + inW
				o := (c*outH + oy) * outW
				for ox := 0; ox < outW; ox++ {
					i0 := r0 + 2*ox
					i1 := r1 + 2*ox
					bi, bv := i0, xs[i0]
					if v := xs[i0+1]; v > bv {
						bi, bv = i0+1, v
					}
					if v := xs[i1]; v > bv {
						bi, bv = i1, v
					}
					if v := xs[i1+1]; v > bv {
						bi, bv = i1+1, v
					}
					ys[o+ox] = bv
					args[o+ox] = bi
				}
			}
		}
	}
}

// --- end of the frozen bodies ---

// frozenCases lists the architectures the reference is compared on: the
// four model families, every convolution geometry of the gradcheck suite
// twice — as the first layer (no input gradient) and behind a ReLU, where
// its col2im runs — and a 2×2 pool over 6×6 planes, whose odd output width
// no vector pooling body takes.
func frozenCases() map[string]*Network {
	cases := map[string]*Network{
		"MLP":        MLP(14, 2),
		"CNN":        CNN(Shape{C: 1, H: 8, W: 8}, 10),
		"ResNetLite": ResNetLite(Shape{C: 3, H: 8, W: 8}, 100, 1),
		"CharLSTM":   CharLSTM(8, 12, 16),
		"LSTM-inner": NewBuilder(Vec(12)).Dense(12).LSTM(3, 4, 5).Dense(3).MustBuild(),
		"Residual-first": NewBuilder(Shape{C: 2, H: 4, W: 4}).
			Residual().Residual().GlobalAvgPool().Dense(3).MustBuild(),
		"pool-6x6": NewBuilder(Shape{C: 2, H: 6, W: 6}).
			Conv2D(3, 3, 1, 1).ReLU().MaxPool2D(2).Dense(4).MustBuild(),
	}
	for _, c := range []struct {
		name                 string
		in                   Shape
		outC, k, stride, pad int
	}{
		{"conv-s1p1", Shape{C: 2, H: 5, W: 5}, 3, 3, 1, 1},
		{"conv-stride2", Shape{C: 2, H: 6, W: 6}, 3, 3, 2, 1},
		{"conv-nopad", Shape{C: 1, H: 5, W: 5}, 2, 3, 1, 0},
		{"conv-stride2pad2", Shape{C: 2, H: 7, W: 7}, 3, 3, 2, 2},
		{"conv-rect", Shape{C: 2, H: 5, W: 7}, 3, 3, 1, 1},
		{"conv-rect-stride2", Shape{C: 2, H: 8, W: 5}, 3, 3, 2, 1},
		{"conv-wide-kernel", Shape{C: 1, H: 6, W: 6}, 2, 5, 2, 2},
	} {
		cases[c.name] = NewBuilder(c.in).Conv2D(c.outC, c.k, c.stride, c.pad).ReLU().Dense(4).MustBuild()
		cases[c.name+"-inner"] = NewBuilder(c.in).ReLU().Conv2D(c.outC, c.k, c.stride, c.pad).ReLU().Dense(4).MustBuild()
	}
	return cases
}

func TestGradientMatchesFrozenReference(t *testing.T) {
	for name, net := range frozenCases() {
		for _, batch := range []int{1, 7, 24} {
			t.Run(fmt.Sprintf("%s/f64/batch%d", name, batch), func(t *testing.T) {
				testAgainstFrozen[float64](t, net, batch)
			})
			t.Run(fmt.Sprintf("%s/f32/batch%d", name, batch), func(t *testing.T) {
				testAgainstFrozen[float32](t, net, batch)
			})
		}
	}
}

func testAgainstFrozen[F Float](t *testing.T, net *Network, batch int) {
	r := rng.New(uint64(53 + batch))
	// InitParams zeroes every bias, and adding +0 hides how a bias is
	// added; nudge every parameter so the bias paths carry values.
	p64 := net.InitParams(r)
	for i := range p64 {
		p64[i] += 0.1 * r.Normal(0, 1)
	}
	params := toF[F](p64)
	x := toF[F](randInput(r, batch*net.in.Size()))
	labels := randLabels(r, batch, net.classes)

	eng := newEngine[F](net, 24)
	got, want := make([]F, net.total), make([]F, net.total)
	// Twice through the engine: the second pass runs over warm scratch
	// (stale packings, stale staging) and must not differ.
	for pass := 0; pass < 2; pass++ {
		loss := eng.Gradient(params, x, labels, got)
		refLoss := referenceGradient(net, params, x, labels, want)
		if math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Fatalf("pass %d: loss %v (%#x), frozen reference %v (%#x)",
				pass, loss, math.Float64bits(loss), refLoss, math.Float64bits(refLoss))
		}
		for i := range got {
			if g, w := float64(got[i]), float64(want[i]); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("pass %d: grad[%d] = %v (%#x), frozen reference %v (%#x)",
					pass, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// toF narrows a float64 vector to F (the identity at float64).
func toF[F Float](v []float64) []F {
	out := make([]F, len(v))
	for i, x := range v {
		out[i] = F(x)
	}
	return out
}
