package nn

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// Float is the compute-precision constraint for the engine and the generic
// layer bodies. []float32 and []float64 are distinct gcshapes, so every
// body is stencilled once per precision: the float64 instantiation is the
// same machine loop a hand-written float64 function compiles to, and the
// GEMM and level-1 calls below resolve to the vecmath driver of that
// precision with no run-time dispatch of their own.
type Float = vecmath.Float

// forward computes y (batch×outSize) from x (batch×inSize) by running
// layer l's generic body at precision F. This switch and the one in
// backward are the single place that enumerates the (closed) set of layer
// types.
func forward[F Float](l layer, params, x, y []F, batch int, sc *scratch[F]) {
	switch l := l.(type) {
	case *dense:
		denseForward(l, params, x, y, batch)
	case *relu:
		n := batch * l.in.Size()
		vecmath.ReLU(y[:n], x[:n])
	case *tanhLayer:
		tanhForward(x, y, batch*l.in.Size())
	case *conv2d:
		convForward(l, params, x, y, batch, sc)
	case *maxPool2d:
		maxPoolForward(l, x, y, batch, sc)
	case *globalAvgPool:
		gavgForward(l, x, y, batch)
	case *lstm:
		lstmForward(l, params, x, y, batch, sc)
	case *residualBlock:
		residualForward(l, params, x, y, batch, sc)
	default:
		panic(fmt.Sprintf("nn: no forward pass for layer %T", l))
	}
}

// backward consumes dy (batch×outSize), writes dx (batch×inSize) and
// accumulates parameter gradients into dparams. x and y are the buffers
// from the immediately preceding forward call with the same batch. A nil
// dx means nobody reads the input gradient (the network's first layer):
// parameter gradients are accumulated exactly as otherwise and the
// products that would only feed dx are skipped.
func backward[F Float](l layer, params, x, y, dy, dx, dparams []F, batch int, sc *scratch[F]) {
	if dx == nil && l.paramCount() == 0 {
		return
	}
	switch l := l.(type) {
	case *dense:
		denseBackward(l, params, x, dy, dx, dparams, batch)
	case *relu:
		n := batch * l.in.Size()
		vecmath.ReLUGrad(dx[:n], dy[:n], x[:n])
	case *tanhLayer:
		tanhBackward(y, dy, dx, batch*l.in.Size())
	case *conv2d:
		convBackward(l, params, dy, dx, dparams, batch, sc)
	case *maxPool2d:
		maxPoolBackward(l, dy, dx, batch, sc.ints)
	case *globalAvgPool:
		gavgBackward(l, dy, dx, batch)
	case *lstm:
		lstmBackward(l, params, x, dy, dx, dparams, batch, sc)
	case *residualBlock:
		residualBackward(l, params, x, y, dy, dx, dparams, batch, sc)
	default:
		panic(fmt.Sprintf("nn: no backward pass for layer %T", l))
	}
}

// sumF returns the sum of the elements of x, accumulated in F.
func sumF[F Float](x []F) F {
	var s F
	for _, v := range x {
		s += v
	}
	return s
}

// Scalar transcendentals evaluate in float64 and round once to F: for
// F=float64 the conversions are identities, so the float64 path is
// unchanged; for F=float32 one correctly-rounded narrowing replaces a
// whole f32 libm.

func sigmoidF[F Float](x F) F {
	return F(1 / (1 + math.Exp(-float64(x))))
}

func tanhF[F Float](x F) F {
	return F(math.Tanh(float64(x)))
}
