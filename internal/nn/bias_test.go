package nn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/vecmath"
)

// biasSpecials are the values mixed into the bias-seeding test's weights,
// inputs and biases: NaN of either sign, ±Inf, ±0, subnormals, and
// magnitudes whose products overflow or underflow.
var biasSpecials = []float64{
	math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
}

// biasOperand returns n values, Normal except every fourth one from a
// rotating start, which is a special value.
func biasOperand[F Float](r *rand.Rand, n, rot int) []F {
	v := make([]F, n)
	for i := range v {
		if (i+rot)%4 == 0 {
			v[i] = F(biasSpecials[(i/4+rot)%len(biasSpecials)])
		} else {
			v[i] = F(r.NormFloat64())
		}
	}
	return v
}

// sameOrNaN reports whether got has want's bits, or is NaN where a NaN
// product met a NaN bias (the add's operand order picks that payload).
func sameOrNaN[F Float](got, prod, bias F) bool {
	if prod != prod && bias != bias {
		return got != got
	}
	want := prod + bias
	return math.Float64bits(float64(got)) == math.Float64bits(float64(want)) && (got == got) == (want == want)
}

// TestForwardBiasMatchesProductThenAdd pins the dense and convolution
// forward passes, whose biases seed their product (vecmath.GemmBias), to
// the two passes they replace — Gemm into the output, then the bias added
// per unit (dense) or per channel (conv) — bit for bit at both precisions:
// k = 1, batch and channel counts that are not multiples of four, outputs
// one to three wide (the pure-Go narrow tile on every build) and wider,
// and weights, inputs and biases carrying every special value.
func TestForwardBiasMatchesProductThenAdd(t *testing.T) {
	t.Run("f64", testForwardBias[float64])
	t.Run("f32", testForwardBias[float32])
}

func testForwardBias[F Float](t *testing.T) {
	r := rand.New(rand.NewPCG(107, 109))
	for _, in := range []int{1, 3, 17} {
		for _, out := range []int{1, 2, 3, 5, 8, 9} {
			for _, batch := range []int{1, 3, 5, 7, 9} {
				l := &dense{in: Vec(in), out: out}
				rot := in + out + batch
				params := biasOperand[F](r, l.paramCount(), rot)
				x := biasOperand[F](r, batch*in, rot+1)
				y := make([]F, batch*out)
				denseForward(l, params, x, y, batch)
				prod := make([]F, batch*out)
				vecmath.Gemm(prod, x, params[:in*out], batch, in, out, false)
				bias := params[in*out:]
				for i := range prod {
					if !sameOrNaN(y[i], prod[i], bias[i%out]) {
						t.Fatalf("dense in=%d out=%d batch=%d: y[%d] = %v, product %v plus bias %v", in, out, batch, i, y[i], prod[i], bias[i%out])
					}
				}
			}
		}
	}
	for _, c := range []struct {
		in                   Shape
		outC, k, stride, pad int
	}{
		{Shape{C: 1, H: 1, W: 1}, 3, 1, 1, 0}, // N = 1, K = 1
		{Shape{C: 2, H: 1, W: 2}, 5, 1, 1, 0}, // N = 2
		{Shape{C: 1, H: 1, W: 3}, 7, 1, 1, 0}, // N = 3
		{Shape{C: 2, H: 5, W: 5}, 3, 3, 1, 1}, // N = 25
		{Shape{C: 3, H: 6, W: 7}, 5, 3, 2, 1}, // N = 12
	} {
		l, err := newConv2D(c.in, c.outC, c.k, c.stride, c.pad, false)
		if err != nil {
			t.Fatal(err)
		}
		const batch = 3
		name := fmt.Sprintf("conv %v outC=%d k=%d", c.in, c.outC, c.k)
		rot := c.outC + c.k
		params := biasOperand[F](r, l.paramCount(), rot)
		x := biasOperand[F](r, batch*c.in.Size(), rot+1)
		y := make([]F, batch*l.out.Size())
		convForward(l, params, x, y, batch, &scratch[F]{})
		kp, n := l.patchSize(), l.out.H*l.out.W
		w, bias := params[:c.outC*kp], params[c.outC*kp:]
		col := make([]F, kp*n)
		prod := make([]F, c.outC*n)
		for s := 0; s < batch; s++ {
			im2col(l.patches, col, x[s*c.in.Size():(s+1)*c.in.Size()], make([]F, c.in.Size()+1))
			vecmath.Gemm(prod, w, col, c.outC, kp, n, false)
			ys := y[s*l.out.Size() : (s+1)*l.out.Size()]
			for i := range prod {
				if !sameOrNaN(ys[i], prod[i], bias[i/n]) {
					t.Fatalf("%s sample %d: y[%d] = %v, product %v plus bias %v", name, s, i, ys[i], prod[i], bias[i/n])
				}
			}
		}
	}
}
