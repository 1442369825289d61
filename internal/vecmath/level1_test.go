package vecmath

import (
	"math"
	"math/rand/v2"
	"testing"
)

// level1Pool returns the float64 inputs the level-1 contract names: quiet
// and signalling NaNs with payload bits (entries 0–2, the only NaNs), ±0,
// ±Inf, the smallest subnormal of either sign, ±MaxFloat64 (whose sums
// overflow), ±1, then random normals.
func level1Pool() []float64 {
	rng := rand.New(rand.NewPCG(41, 43))
	pool := []float64{
		math.Float64frombits(0x7ff8_0000_0000_0123), // quiet NaN, payload
		math.Float64frombits(0xfff8_0000_0000_0456), // negative quiet NaN
		math.Float64frombits(0x7ff0_0000_0000_0789), // signalling NaN
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	for i := 0; i < 12; i++ {
		pool = append(pool, rng.NormFloat64())
	}
	return pool
}

// level1Shift offsets b's pool index from a's so a NaN never meets another
// NaN in one operation: which NaN x86 propagates then depends on operand
// order, which the compiler chooses for the scalar loop.
const level1Shift = 5

// TestLevel1F64MatchesScalar pins the float64 AXPY, Add, Sub, AddRowVector,
// SumRowsAcc and Zero drivers (assembly head plus pure-Go tail, or all
// pure Go under -tags noasm) to plain Go loops bit for bit, on every special value
// at every position of every length that splits differently into head
// and tail, out of place and exactly aliased. The reference multiplies
// through an explicit conversion, which the language forbids fusing, so
// an FMA body fails here.
func TestLevel1F64MatchesScalar(t *testing.T) {
	pool := level1Pool()
	// 1.5 and −0.37 are ordinary; 1e300 overflows products of large
	// inputs and 1e-300 sends small ones subnormal.
	alphas := []float64{1.5, -0.37, 1e300, 1e-300}
	for n := 0; n <= 33; n++ {
		for rot := range pool {
			a, b := make([]float64, n), make([]float64, n)
			for i := range a {
				a[i] = pool[(i+rot)%len(pool)]
				b[i] = pool[(i+rot+level1Shift)%len(pool)]
			}
			check := func(op string, got []float64, want func(i int) float64) {
				t.Helper()
				for i := range got {
					if g, w := math.Float64bits(got[i]), math.Float64bits(want(i)); g != w {
						t.Fatalf("n=%d rot=%d i=%d a=%v b=%v: %s = %#x, scalar loop gives %#x",
							n, rot, i, a[i], b[i], op, g, w)
					}
				}
			}
			for _, alpha := range alphas {
				y := Clone(b)
				AXPY(alpha, a, y)
				check("AXPY", y, func(i int) float64 { return b[i] + float64(alpha*a[i]) })
				y = Clone(a)
				AXPY(alpha, y, y)
				check("AXPY x==y", y, func(i int) float64 { return a[i] + float64(alpha*a[i]) })
			}
			sum := func(i int) float64 { return a[i] + b[i] }
			diff := func(i int) float64 { return a[i] - b[i] }
			dst := make([]float64, n)
			Add(dst, a, b)
			check("Add", dst, sum)
			dst = Clone(a)
			Add(dst, dst, b)
			check("Add dst==a", dst, sum)
			dst = Clone(b)
			Add(dst, a, dst)
			check("Add dst==b", dst, sum)
			dst = make([]float64, n)
			Sub(dst, a, b)
			check("Sub", dst, diff)
			dst = Clone(a)
			Sub(dst, dst, b)
			check("Sub dst==a", dst, diff)
			dst = Clone(b)
			Sub(dst, a, dst)
			check("Sub dst==b", dst, diff)

			// Three rows of a, and b as the vector / accumulator.
			const m = 3
			mat := make([]float64, 0, m*n)
			for r := 0; r < m; r++ {
				mat = append(mat, a...)
			}
			AddRowVector(mat, b, m, n)
			for r := 0; r < m; r++ {
				check("AddRowVector", mat[r*n:(r+1)*n], sum)
			}
			mat = mat[:0]
			for r := 0; r < m; r++ {
				mat = append(mat, a...)
			}
			acc := Clone(b)
			SumRowsAcc(acc, mat, m, n)
			check("SumRowsAcc", acc, func(i int) float64 { return b[i] + a[i] + a[i] + a[i] })

			dst = Clone(a)
			Zero(dst)
			check("Zero", dst, func(int) float64 { return 0 })
		}
	}

	// A triple whose fused and unfused results differ: (1+2⁻³⁰)² rounds to
	// 1+2⁻²⁹ as a product, so multiply-then-add gives exactly 0 where
	// math.FMA keeps 2⁻⁶⁰.
	alpha := 1 + 0x1p-30
	x, y := alpha, -(1 + 0x1p-29)
	if math.FMA(alpha, x, y) == y+float64(alpha*x) {
		t.Fatal("the triple does not separate FMA from multiply-then-add")
	}
	for n := 0; n <= 33; n++ {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = x, y
		}
		AXPY(alpha, xs, ys)
		for i, v := range ys {
			if v != 0 {
				t.Fatalf("n=%d i=%d: AXPY = %g, multiply-then-add gives 0 (math.FMA gives %g)", n, i, v, math.FMA(alpha, x, y))
			}
		}
	}
}

// BenchmarkLevel1F64 reports the float64 axpy, add and sub drivers' memory
// throughput (bytes read plus bytes written per second) at the adult MLP's
// parameter count, the length FedAvg's aggregation and the wire path's
// delta run them at.
func BenchmarkLevel1F64(b *testing.B) {
	const n = 1354
	rng := rand.New(rand.NewPCG(47, 53))
	x, y, dst := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"axpy", func() { AXPY(1e-3, x, y) }},
		{"add", func() { Add(dst, x, y) }},
		{"sub", func() { Sub(dst, x, y) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.op()
			}
			b.ReportMetric(3*8*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}
