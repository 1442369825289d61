package vecmath

import (
	"math"
	"math/rand/v2"
	"testing"
)

// convertMaxLen covers every head/tail split of the eight-lane bodies up
// to past four strides.
const convertMaxLen = 33

// widenPool returns the float32 inputs the bridge contract names: NaN of
// either sign and a signalling NaN with a payload, ±Inf, ±0, the smallest
// and largest subnormals, ±MaxFloat32, ±1, then random normals.
func widenPool(rng *rand.Rand) []float32 {
	nan := float32(math.NaN())
	pool := []float32{
		nan, float32(math.Copysign(float64(nan), -1)), math.Float32frombits(0x7F800001), math.Float32frombits(0xFFA00F00),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(1), math.Float32frombits(0x007FFFFF), -math.Float32frombits(0x007FFFFF),
		math.MaxFloat32, -math.MaxFloat32, 1, -1,
	}
	for i := 0; i < 16; i++ {
		pool = append(pool, float32(rng.NormFloat64()))
	}
	return pool
}

// narrowPool returns the float64 inputs of the same contract on the way
// down: NaNs with payloads that do and do not survive narrowing, ±Inf,
// ±0, values past MaxFloat32 (overflow to ±Inf) and on either side of its
// rounding boundary, float32-subnormal results, float64 subnormals that
// flush to ±0, exact ties, then random values over many binades.
func narrowPool(rng *rand.Rand) []float64 {
	half := math.Nextafter(math.MaxFloat32, math.Inf(1)) // first float64 above MaxFloat32
	tie := 1 + math.Ldexp(1, -24)                        // halfway between two float32
	pool := []float64{
		math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF4000000012345),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1e39, -1e39, math.MaxFloat64, -math.MaxFloat64, half, -half,
		math.MaxFloat32 * (1 + 0x1p-25), math.MaxFloat32 * (1 + 0x1p-24),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32 / 2, math.SmallestNonzeroFloat32 * 0.75,
		1e-40, -1e-40, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		tie, -tie, 1 + 3*math.Ldexp(1, -24), math.Pi,
	}
	for i := 0; i < 16; i++ {
		pool = append(pool, rng.NormFloat64()*math.Ldexp(1, rng.IntN(300)-150))
	}
	return pool
}

// TestWidenNarrowContract pins the bridge bit for bit: at every length
// that splits differently into head and tail, and every rotation of the
// special values through the lanes, Widen and Narrow equal the scalar
// conversions.
func TestWidenNarrowContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 47))
	up, down := widenPool(rng), narrowPool(rng)
	for n := 0; n <= convertMaxLen; n++ {
		for rot := 0; rot < max(len(up), len(down)); rot++ {
			x32, y64 := make([]float32, n), make([]float64, n)
			x64, y32 := make([]float64, n), make([]float32, n)
			for i := 0; i < n; i++ {
				x32[i] = up[(i+rot)%len(up)]
				x64[i] = down[(i+rot)%len(down)]
			}
			Widen(y64, x32)
			Narrow(y32, x64)
			for i := 0; i < n; i++ {
				if got, want := math.Float64bits(y64[i]), math.Float64bits(float64(x32[i])); got != want {
					t.Fatalf("n=%d rot=%d: Widen(%#x)[%d] = %#x, scalar gives %#x", n, rot, math.Float32bits(x32[i]), i, got, want)
				}
				if got, want := math.Float32bits(y32[i]), math.Float32bits(float32(x64[i])); got != want {
					t.Fatalf("n=%d rot=%d: Narrow(%#x)[%d] = %#x, scalar gives %#x", n, rot, math.Float64bits(x64[i]), i, got, want)
				}
			}
		}
	}
}

// quantizeDef is the scalar definition QuantizeInt8 is stated against —
// the compare-and-branch rounding the int8 codec ran one coordinate at a
// time: floor, a Bernoulli(frac) increment in float64, a float clamp.
func quantizeDef(x, inv, u float64) int8 {
	v := x * inv
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	f := math.Floor(v)
	qi := f
	if u < v-f {
		qi++
	}
	if qi > 127 {
		qi = 127
	} else if qi < -127 {
		qi = -127
	}
	return int8(qi)
}

// TestQuantizeInt8Contract pins QuantizeInt8 — the table entry plus the
// pure-Go tail, the pure-Go loop alone — to the scalar definition on NaN,
// ±Inf, ±0, exact integers, halves, values just past ±127 and ±128,
// huge finite values and denormals, under uniforms that include 0, values
// just below 1 and u exactly equal to the fraction (no round-up), for
// scales of 1, a codec's 127/max, 0 and +Inf, at every head/tail split.
func TestQuantizeInt8Contract(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 59))
	xs := []float64{
		math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1, -1, 127, -127, 126.5, -126.5, 127.25, -127.25, 127.75, -127.75, 128, -128, 128.5, -128.5,
		1e300, -1e300, math.MaxFloat64, 0.5, -0.5, 0.3, -0.3, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Nextafter(127, 128), math.Nextafter(-127, -128), math.Nextafter(-128, 0),
	}
	for i := 0; i < 24; i++ {
		xs = append(xs, (rng.Float64()*2-1)*130)
	}
	us := []float64{0, 0.5, math.Nextafter(1, 0), 0.25, 0.75}
	for i := 0; i < 11; i++ {
		us = append(us, rng.Float64())
	}
	for _, inv := range []float64{1, 127 / 129.3, 0, math.Inf(1), 0.5} {
		for n := 0; n <= convertMaxLen; n++ {
			for rot := range xs {
				x, u := make([]float64, n), make([]float64, n)
				for i := range x {
					x[i] = xs[(i+rot)%len(xs)]
					u[i] = us[(i*7+rot)%len(us)]
					if (i+rot)%5 == 0 { // u on the fraction itself: not below it
						if v := x[i] * inv; !math.IsNaN(v - v) {
							u[i] = v - math.Floor(v)
						}
					}
				}
				q, qGo := make([]int8, n), make([]int8, n)
				QuantizeInt8(q, x, inv, u)
				quantizeGo(qGo, x, inv, u)
				for i := range x {
					want := quantizeDef(x[i], inv, u[i])
					if q[i] != want || qGo[i] != want {
						t.Fatalf("inv=%v n=%d rot=%d i=%d x=%v u=%v: QuantizeInt8 %d, quantizeGo %d, definition %d",
							inv, n, rot, i, x[i], u[i], q[i], qGo[i], want)
					}
				}
			}
		}
	}
}

// efFoldDef and efDecodeDef are the scalar definitions the int8
// error-feedback passes are stated against: the generic step's fold, its
// max-abs and NaN count, and its decode, subtraction, non-finite reset and
// narrowing, one coordinate at a time.
func efFoldDef(x, e float64) float64 { return x + e }

func efDecodeDef(x, inv, scale, u float64) (q int8, d, r float64) {
	q = quantizeDef(x, inv, u)
	d = float64(scale * float64(q))
	r = x - d
	if math.IsNaN(r) || math.IsInf(r, 0) {
		r = 0
	}
	return q, d, r
}

// sameF64 reports whether got has want's bits, or is NaN where want is a
// NaN made from two NaN operands, whose payload is the operand order's.
func sameF64(got, want float64, nanMeetsNaN bool) bool {
	if nanMeetsNaN && math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestInt8EFPassesContract pins FoldMaxAbs and QuantizeDecode — the table
// entries plus the pure-Go tail, and the pure-Go loops alone — to the
// scalar definitions above at both residual precisions, at every head/tail
// split and every rotation of the special values through the lanes: NaN
// of either sign with payloads, ±Inf, ±0, subnormals, ±MaxFloat64 (whose
// folds overflow), values past MaxFloat32 (whose residuals narrow to
// ±Inf), under the scales a codec chunk takes (127/m for several m, 0 and
// a subnormal scale with inv = +Inf) and uniforms on the fraction itself.
func TestInt8EFPassesContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 73))
	xs := narrowPool(rng)
	xs = append(xs, 1, -1, 0.3, -0.7, 126.9, -127, 5e-324)
	es := append(narrowPool(rng)[:24], 0.125, -3)
	us := []float64{0, 0.5, math.Nextafter(1, 0), 0.25}
	for i := 0; i < 7; i++ {
		us = append(us, rng.Float64())
	}
	type scaled struct{ inv, scale float64 }
	var scales []scaled
	for _, m := range []float64{1, 3.7, 1e300, math.MaxFloat64, 1e-300, 1e-310} {
		scale := m / 127
		scales = append(scales, scaled{1 / scale, scale})
	}
	scales = append(scales, scaled{math.Inf(1), 0}, scaled{math.Inf(1), 5e-324}, scaled{1, 1})
	for n := 0; n <= convertMaxLen; n++ {
		for rot := range xs {
			x, e := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i] = xs[(i+rot)%len(xs)]
				e[i] = es[(i*3+rot)%len(es)]
			}
			e32 := make([]float32, n)
			for i, v := range e {
				e32[i] = float32(v)
			}

			// Pass 1: scan, fold a float64 residual, fold a float32 one.
			for _, c := range []struct {
				name string
				run  func(x []float64) (float64, int)
				add  func(i int) (float64, bool)
			}{
				{"scan", func(x []float64) (float64, int) { return FoldMaxAbs[float64](x, nil) },
					func(int) (float64, bool) { return 0, false }},
				{"f64", func(x []float64) (float64, int) { return FoldMaxAbs(x, Clone(e)) },
					func(i int) (float64, bool) { return e[i], true }},
				{"f32", func(x []float64) (float64, int) { return FoldMaxAbs(x, append([]float32(nil), e32...)) },
					func(i int) (float64, bool) { return float64(e32[i]), true }},
			} {
				got := Clone(x)
				m, nans := c.run(got)
				var wm float64
				wnans := 0
				for i := range x {
					want := x[i]
					ev, fold := c.add(i)
					if fold {
						want = efFoldDef(x[i], ev)
					}
					if !sameF64(got[i], want, math.IsNaN(x[i]) && math.IsNaN(ev)) {
						t.Fatalf("n=%d rot=%d %s: x[%d] = %#x, definition %#x (x=%v e=%v)", n, rot, c.name, i, math.Float64bits(got[i]), math.Float64bits(want), x[i], ev)
					}
					if math.IsNaN(want) {
						wnans++
					} else if a := math.Abs(want); a > wm {
						wm = a
					}
				}
				if math.Float64bits(m) != math.Float64bits(wm) || nans != wnans {
					t.Fatalf("n=%d rot=%d %s: FoldMaxAbs = (%v, %d), definition (%v, %d)", n, rot, c.name, m, nans, wm, wnans)
				}
			}

			// Pass 2, at both residual precisions, driver and Go loop.
			u := make([]float64, n)
			for _, sc := range scales {
				for i := range u {
					u[i] = us[(i*7+rot)%len(us)]
					if (i+rot)%5 == 0 {
						if v := x[i] * sc.inv; !math.IsNaN(v - v) {
							u[i] = v - math.Floor(v)
						}
					}
				}
				check := func(name string, q []int8, gx []float64, r func(i int) float64, narrow bool) {
					t.Helper()
					for i := range x {
						wq, wd, wr := efDecodeDef(x[i], sc.inv, sc.scale, u[i])
						if narrow {
							wr = float64(float32(wr))
						}
						if q[i] != wq || math.Float64bits(gx[i]) != math.Float64bits(wd) || math.Float64bits(r(i)) != math.Float64bits(wr) {
							t.Fatalf("n=%d rot=%d inv=%v scale=%v %s i=%d x=%v u=%v: (q, x, e) = (%d, %#x, %#x), definition (%d, %#x, %#x)",
								n, rot, sc.inv, sc.scale, name, i, x[i], u[i], q[i], math.Float64bits(gx[i]), math.Float64bits(r(i)), wq, math.Float64bits(wd), math.Float64bits(wr))
						}
					}
				}
				for _, goOnly := range []bool{false, true} {
					name := map[bool]string{false: "driver", true: "go"}[goOnly]
					q, gx, ge := make([]int8, n), Clone(x), make([]float64, n)
					q32, gx32, ge32 := make([]int8, n), Clone(x), make([]float32, n)
					if goOnly {
						quantizeDecodeGo(q, gx, ge, sc.inv, sc.scale, u)
						quantizeDecodeGo(q32, gx32, ge32, sc.inv, sc.scale, u)
					} else {
						QuantizeDecode(q, gx, ge, sc.inv, sc.scale, u)
						QuantizeDecode(q32, gx32, ge32, sc.inv, sc.scale, u)
					}
					check(name+"/f64", q, gx, func(i int) float64 { return ge[i] }, false)
					check(name+"/f32", q32, gx32, func(i int) float64 { return float64(ge32[i]) }, true)
				}
			}
		}
	}
}

// BenchmarkWidenNarrow reports the precision bridge's memory throughput
// (bytes read plus bytes written per second) at the adult MLP's parameter
// count, the length an fp32 slot's local step converts several times.
func BenchmarkWidenNarrow(b *testing.B) {
	const n = 1354
	rng := rand.New(rand.NewPCG(61, 67))
	x32, x64 := make([]float32, n), make([]float64, n)
	for i := range x64 {
		x64[i] = rng.NormFloat64()
		x32[i] = float32(x64[i])
	}
	b.Run("widen", func(b *testing.B) {
		y := make([]float64, n)
		for i := 0; i < b.N; i++ {
			Widen(y, x32)
		}
		b.ReportMetric(12*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
	})
	b.Run("narrow", func(b *testing.B) {
		y := make([]float32, n)
		for i := 0; i < b.N; i++ {
			Narrow(y, x64)
		}
		b.ReportMetric(12*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
	})
}
