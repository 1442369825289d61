package nn

import "math"

// GradCheck compares the analytic gradient produced by Engine.Gradient
// against central finite differences of the loss, returning the maximum
// relative error over all parameters. It is exported for use by this
// package's tests and by downstream tests that define custom layers.
//
// The relative error for parameter i is |g_i − ĝ_i| / max(floor, |g_i| +
// |ĝ_i|), the symmetric form that stays meaningful near zero; the floor is
// 1e-8 here.
func GradCheck(net *Network, params, x []float64, labels []int, h float64) float64 {
	return gradCheck(NewEngine(net, len(labels)), params, x, labels, h, 1e-8)
}

// GradCheck32 is GradCheck on the float32 engine: central finite
// differences computed in the fp32 forward path. The step h must be coarse
// enough to survive fp32 loss rounding (h ≈ 5e-3 works for the unit-scale
// test networks), and callers should expect relative errors around 1e-2
// rather than GradCheck's 1e-6 — the limit here is fp32 arithmetic, not
// the layer math, which is shared with the float64 path. The denominator
// floor is 1e-4 for the same reason.
func GradCheck32(net *Network, params, x []float32, labels []int, h float32) float64 {
	return gradCheck(NewEngine32(net, len(labels)), params, x, labels, h, 1e-4)
}

func gradCheck[F Float](eng *Engine[F], params, x []F, labels []int, h F, floor float64) float64 {
	analytic := make([]F, len(params))
	eng.Gradient(params, x, labels, analytic)

	p := make([]F, len(params))
	copy(p, params)
	var worst float64
	for i := range p {
		orig := p[i]
		p[i] = orig + h
		lp := eng.Loss(p, x, labels)
		p[i] = orig - h
		lm := eng.Loss(p, x, labels)
		p[i] = orig
		numeric := (lp - lm) / (2 * float64(h))
		denom := math.Abs(float64(analytic[i])) + math.Abs(numeric)
		if denom < floor {
			denom = floor
		}
		rel := math.Abs(float64(analytic[i])-numeric) / denom
		if rel > worst {
			worst = rel
		}
	}
	return worst
}
