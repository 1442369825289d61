package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// lstm is a single-layer LSTM over a fixed-length sequence. The input is a
// flattened sequence of steps×inDim features (for character models each
// step is a one-hot vector); the output is the final hidden state h_T,
// which a Dense head then maps to logits. Backpropagation through time
// stores all gate activations for the full sequence.
//
// Parameter layout: Wx[inDim×4H] | Wh[H×4H] | b[4H], with gate order
// input, forget, cell (g), output.
//
// Execution is step-major: at every timestep the whole mini-batch's gate
// pre-activations are one batch×4H GEMM against Wx plus one against Wh
// (and the transposed products on the way back), so the recurrence runs on
// the same register-tiled vecmath kernels as the dense and conv layers
// instead of per-sample vector loops.
type lstm struct {
	in     Shape
	steps  int
	inDim  int
	hidden int
}

// LSTM appends a recurrent layer that interprets the current activation as
// a sequence of steps×inDim features and outputs the final hidden state of
// size hidden.
func (b *Builder) LSTM(steps, inDim, hidden int) *Builder {
	in := b.cur()
	if steps <= 0 || inDim <= 0 || hidden <= 0 {
		return b.add(nil, fmt.Errorf("nn: LSTM(steps=%d, inDim=%d, hidden=%d) invalid", steps, inDim, hidden))
	}
	if in.Size() != steps*inDim {
		return b.add(nil, fmt.Errorf("nn: LSTM expects input size %d (=%d steps × %d), have %v", steps*inDim, steps, inDim, in))
	}
	return b.add(&lstm{in: in, steps: steps, inDim: inDim, hidden: hidden}, nil)
}

func (l *lstm) name() string    { return "lstm" }
func (l *lstm) inShape() Shape  { return l.in }
func (l *lstm) outShape() Shape { return Vec(l.hidden) }
func (l *lstm) paramCount() int {
	h4 := 4 * l.hidden
	return l.inDim*h4 + l.hidden*h4 + h4
}

func (l *lstm) initParams(params []float64, r *rng.RNG) {
	h4 := 4 * l.hidden
	limit := 1 / math.Sqrt(float64(l.hidden))
	nW := l.inDim*h4 + l.hidden*h4
	for i := 0; i < nW; i++ {
		params[i] = (2*r.Float64() - 1) * limit
	}
	b := params[nW:]
	vecmath.Zero(b)
	// Forget-gate bias starts at 1 so early training retains memory.
	for j := l.hidden; j < 2*l.hidden; j++ {
		b[j] = 1
	}
}

// Per-step scratch record, batch-major so every timestep is GEMM-ready:
// gates (batch×4H, activated in place) | c (batch×H) | tc (batch×H) —
// 6H floats per sample per step. h_t is not stored separately:
// h_t = o*tc is recomputed from the record when needed.
const lstmRec = 6

// scratch layout (offsets within one floatBuf, B = batch):
//
//	recs  S·B·6H   per-step records, persist from forward into backward
//	xbuf  B·D      current timestep's inputs, gathered batch-major
//	hbuf  B·H      forward: running h_t; backward: recomputed h_{t-1}
//	dh    B·H      backward only
//	dc    B·H      backward only
//	dz    B·4H     backward only
//	dxt   B·D      backward only
func (l *lstm) scratchSize(batch int) int {
	h := l.hidden
	return batch * (l.steps*lstmRec*h + 2*l.inDim + 7*h)
}

// recBlocks slices the records of step t into the gate matrix (batch×4H)
// and the cell/tanh-cell matrices (batch×H each).
func recBlocks[F Float](recs []F, t, batch, h int) (gates, c, tc []F) {
	base := t * batch * lstmRec * h
	gates = recs[base : base+batch*4*h]
	c = recs[base+batch*4*h : base+batch*5*h]
	tc = recs[base+batch*5*h : base+batch*6*h]
	return
}

func lstmForward[F Float](l *lstm, params, x, y []F, batch int, sc *scratch[F]) {
	h := l.hidden
	h4 := 4 * h
	d := l.inDim
	wx := params[:d*h4]
	wh := params[d*h4 : d*h4+h*h4]
	bias := params[d*h4+h*h4:]

	buf := sc.floatBuf(l.scratchSize(batch))
	recs := buf[:batch*l.steps*lstmRec*h]
	xbuf := buf[len(recs) : len(recs)+batch*d]
	hbuf := buf[len(recs)+batch*d : len(recs)+batch*d+batch*h]

	inSize := l.in.Size()
	var cPrev []F // previous step's batch×H cell block, nil at t=0
	for t := 0; t < l.steps; t++ {
		gates, c, tc := recBlocks(recs, t, batch, h)
		// Gather x_t batch-major and compute all gate pre-activations:
		// Z = X_t·Wx + H_{t-1}·Wh + b, one GEMM per operand.
		for s := 0; s < batch; s++ {
			copy(xbuf[s*d:(s+1)*d], x[s*inSize+t*d:s*inSize+(t+1)*d])
		}
		vecmath.Gemm(gates, xbuf, wx, batch, d, h4, false)
		if t > 0 {
			vecmath.Gemm(gates, hbuf, wh, batch, h, h4, true)
		}
		vecmath.AddRowVector(gates, bias, batch, h4)
		lstmGateForward(gates, c, tc, hbuf, cPrev, batch, h)
		cPrev = c
	}
	copy(y[:batch*h], hbuf)
}

// lstmGateForward applies the elementwise half of one LSTM timestep:
// activate the four gate blocks in place, update the cell state, and emit
// h_t = o·tanh(c). cPrev is nil at t=0 (cell state starts at zero). The
// default (float64) body is the pre-split loop verbatim — same operations
// in the same order, so the sync golden stays bit-identical — while the
// float32 specialization runs the polynomial fp32 transcendentals from
// vecmath/math32.go instead of round-tripping every element through the
// float64 libm.
func lstmGateForward[F Float](gates, c, tc, hbuf, cPrev []F, batch, h int) {
	h4 := 4 * h
	switch g4 := any(gates).(type) {
	case []float32:
		lstmGateForward32(g4, any(c).([]float32), any(tc).([]float32),
			any(hbuf).([]float32), any(cPrev).([]float32), batch, h)
	default:
		for s := 0; s < batch; s++ {
			g := gates[s*h4 : (s+1)*h4]
			cs := c[s*h : (s+1)*h]
			tcs := tc[s*h : (s+1)*h]
			hs := hbuf[s*h : (s+1)*h]
			for j := 0; j < h; j++ {
				gi := sigmoidF(g[j])
				gf := sigmoidF(g[h+j])
				gg := tanhF(g[2*h+j])
				go_ := sigmoidF(g[3*h+j])
				g[j], g[h+j], g[2*h+j], g[3*h+j] = gi, gf, gg, go_
				var cp F
				if cPrev != nil {
					cp = cPrev[s*h+j]
				}
				cs[j] = gf*cp + gi*gg
				tcs[j] = tanhF(cs[j])
				hs[j] = go_ * tcs[j]
			}
		}
	}
}

// lstmGateForward32 runs the gate nonlinearities block-wise through the
// AVX2 vecmath kernels: the input+forget sigmoid block is contiguous in
// the gate layout ([0,2H)), the cell tanh and output sigmoid blocks
// follow, and the cell-state tanh vectorizes over the whole batch row.
// Only the two cheap mul/add fusions remain scalar.
func lstmGateForward32(gates, c, tc, hbuf, cPrev []float32, batch, h int) {
	h4 := 4 * h
	for s := 0; s < batch; s++ {
		g := gates[s*h4 : (s+1)*h4]
		vecmath.Sigmoid32(g[:2*h], g[:2*h])
		vecmath.Tanh32(g[2*h:3*h], g[2*h:3*h])
		vecmath.Sigmoid32(g[3*h:], g[3*h:])
		cs := c[s*h : (s+1)*h]
		tcs := tc[s*h : (s+1)*h]
		hs := hbuf[s*h : (s+1)*h]
		if cPrev != nil {
			cp := cPrev[s*h : (s+1)*h]
			for j := 0; j < h; j++ {
				cs[j] = g[h+j]*cp[j] + g[j]*g[2*h+j]
			}
		} else {
			for j := 0; j < h; j++ {
				cs[j] = g[j] * g[2*h+j]
			}
		}
		vecmath.Tanh32(tcs, cs)
		for j := 0; j < h; j++ {
			hs[j] = g[3*h+j] * tcs[j]
		}
	}
}

func lstmBackward[F Float](l *lstm, params, x, dy, dx, dparams []F, batch int, sc *scratch[F]) {
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
		if dx != nil {
			vecmath.GemmABT(dxt, dz, wx, batch, h4, d, false)
			for s := 0; s < batch; s++ {
				copy(dx[s*inSize+t*d:s*inSize+(t+1)*d], dxt[s*d:(s+1)*d])
			}
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
