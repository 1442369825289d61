package vecmath

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/rng"
)

// naiveMatMul is the reference implementation used to validate the kernels.
func naiveMatMul(a, b []float64, m, k, n int) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func randMat(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	return m
}

func matricesClose(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if !almostEqual(got[i], want[i], 1e-10) {
			t.Fatalf("%s: element %d: got %v, want %v", label, i, got[i], want[i])
		}
	}
}

func transpose(a []float64, r, c int) []float64 {
	out := make([]float64, r*c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out[j*r+i] = a[i*c+j]
		}
	}
	return out
}

// The three GEMM forms of the tile-edge table. Each reduces rows×red×n
// products into a rows×n result; only the operand layouts differ.
const (
	formAB  = iota // Gemm:    A m×k, B k×n, rows m, reduce over k
	formATB        // GemmATB: A m×k, B m×n, rows k, reduce over m
	formABT        // GemmABT: A m×k, B n×k, rows m, reduce over k
)

// gemmTileEdges is the tile-edge differential test for one GEMM form at
// one precision: every m, k in 0..11 against column counts straddling the
// 8- and 16-wide tiles and the float32 half block, with and without
// accumulation, against a naive float64 triple loop over the same
// F-valued inputs. eps is the precision's unit roundoff; the budget is one
// rounding per reduction step relative to the sum of absolute terms, far
// below what a wrong lane, stale accumulator or off-by-one edge produces.
func gemmTileEdges[F Float](t *testing.T, form int, eps float64) {
	rng := rand.New(rand.NewPCG(3, uint64(form)))
	randF := func(n int) []F {
		v := make([]F, n)
		for i := range v {
			v[i] = F(rng.NormFloat64())
		}
		return v
	}
	for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33} {
		for m := 0; m <= 11; m++ {
			for k := 0; k <= 11; k++ {
				for _, acc := range []bool{false, true} {
					rows, red, lb := m, k, k*n
					switch form {
					case formATB:
						rows, red, lb = k, m, m*n
					case formABT:
						lb = n * k
					}
					a, b, seed := randF(m*k), randF(lb), randF(rows*n)
					c := append([]F(nil), seed...)
					switch form {
					case formAB:
						Gemm(c, a, b, m, k, n, acc)
					case formATB:
						GemmATB(c, a, b, m, k, n, acc)
					case formABT:
						GemmABT(c, a, b, m, k, n, acc)
					}
					for i := 0; i < rows; i++ {
						for j := 0; j < n; j++ {
							var want, abs float64
							if acc {
								want = float64(seed[i*n+j])
								abs = math.Abs(want)
							}
							for p := 0; p < red; p++ {
								var term float64
								switch form {
								case formAB:
									term = float64(a[i*k+p]) * float64(b[p*n+j])
								case formATB:
									term = float64(a[p*k+i]) * float64(b[p*n+j])
								case formABT:
									term = float64(a[i*k+p]) * float64(b[j*k+p])
								}
								want += term
								abs += math.Abs(term)
							}
							got := float64(c[i*n+j])
							if d := math.Abs(got - want); !(d <= float64(red+2)*eps*(abs+1e-30)) {
								t.Fatalf("form %d m=%d k=%d n=%d acc=%v: c[%d][%d] = %v, want %v", form, m, k, n, acc, i, j, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func testGemmTileEdges(t *testing.T, form int) {
	t.Run("f64", func(t *testing.T) { gemmTileEdges[float64](t, form, 0x1p-52) })
	t.Run("f32", func(t *testing.T) { gemmTileEdges[float32](t, form, 0x1p-23) })
}

func TestMatMulAgainstNaive(t *testing.T)    { testGemmTileEdges(t, formAB) }
func TestMatMulATBAgainstNaive(t *testing.T) { testGemmTileEdges(t, formATB) }
func TestMatMulABTAgainstNaive(t *testing.T) { testGemmTileEdges(t, formABT) }

// gemmSpecials are the special values the bias and narrow-tile tests mix
// into their operands: NaN of either sign with payloads, ±Inf, ±0, the
// smallest subnormal, and magnitudes whose products overflow.
var gemmSpecials = []float64{
	math.Float64frombits(0x7ff8_0000_0000_0123), math.Float64frombits(0xfff8_0000_0000_0456),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -5e-324, 1e300, -1e300,
}

// specialMat returns an n-element operand of Normal values with every
// third element, from a rotating start, a special value.
func specialMat[F Float](rng *rand.Rand, n, rot int) []F {
	v := make([]F, n)
	for i := range v {
		if (i+rot)%3 == 0 {
			v[i] = F(gemmSpecials[(i/3+rot)%len(gemmSpecials)])
		} else {
			v[i] = F(rng.NormFloat64())
		}
	}
	return v
}

// TestGemmNarrowSummationOrder pins Gemm bit for bit, not to a tolerance,
// where C is narrower than four columns (the pure-Go narrow tile on every
// build): each element is its products added in reduction order from +0,
// each product rounded, then stored (or added to C under accumulate), and
// where the reduction is longer than gemmKC each block's sum is added to
// C in turn. Operands carry every special value; NaN only has to be NaN.
func TestGemmNarrowSummationOrder(t *testing.T) {
	t.Run("f64", testGemmNarrowSummationOrder[float64])
	t.Run("f32", testGemmNarrowSummationOrder[float32])
}

func testGemmNarrowSummationOrder[F Float](t *testing.T) {
	rng := rand.New(rand.NewPCG(83, 89))
	for n := 1; n <= 3; n++ {
		for m := 0; m <= 11; m++ {
			for _, k := range []int{1, 2, 3, 5, 9, gemmKC + 3} {
				for _, acc := range []bool{false, true} {
					rot := n + m + k
					a, b, seed := specialMat[F](rng, m*k, rot), specialMat[F](rng, k*n, rot+1), specialMat[F](rng, m*n, rot+2)
					c := append([]F(nil), seed...)
					Gemm(c, a, b, m, k, n, acc)
					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							want := seed[i*n+j]
							for p0 := 0; p0 < k; p0 += gemmKC {
								var s F
								for p := p0; p < min(p0+gemmKC, k); p++ {
									s += F(a[i*k+p] * b[p*n+j])
								}
								if acc || p0 > 0 {
									want += s
								} else {
									want = s
								}
							}
							got := c[i*n+j]
							if float64(got) != float64(want) && !(got != got && want != want) || math.Signbit(float64(got)) != math.Signbit(float64(want)) && want == want {
								t.Fatalf("m=%d k=%d n=%d acc=%v: c[%d][%d] = %v, summation order gives %v", m, k, n, acc, i, j, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmBiasMatchesProductThenAdd pins GemmBias to the two passes it
// replaces, Gemm into C followed by the bias added to every element (per
// column, or per row), bit for bit at both precisions: every row count
// around the 4-row tiles, k = 1 and a reduction longer than gemmKC, column
// counts across the narrow tile, the wide tiles and their edges, and
// operands and biases carrying every special value. Where a NaN product
// meets a NaN bias the result only has to be NaN: which payload an add of
// two NaNs keeps is its operand order.
func TestGemmBiasMatchesProductThenAdd(t *testing.T) {
	t.Run("f64", testGemmBias[float64])
	t.Run("f32", testGemmBias[float32])
}

func testGemmBias[F Float](t *testing.T) {
	rng := rand.New(rand.NewPCG(97, 101))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 9} {
		for _, k := range []int{1, 2, 5, gemmKC + 1} {
			for _, n := range []int{1, 2, 3, 4, 7, 8, 9, 17, 33} {
				for _, perRow := range []bool{false, true} {
					rot := m + k + n
					a, b := specialMat[F](rng, m*k, rot), specialMat[F](rng, k*n, rot+1)
					bias := specialMat[F](rng, map[bool]int{false: n, true: m}[perRow], rot+2)
					got := make([]F, m*n)
					for i := range got {
						got[i] = F(rng.NormFloat64()) // GemmBias overwrites C
					}
					GemmBias(got, a, b, bias, m, k, n, perRow)
					prod := make([]F, m*n)
					Gemm(prod, a, b, m, k, n, false)
					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							var v F
							if perRow {
								v = bias[i]
							} else {
								v = bias[j]
							}
							p := prod[i*n+j]
							want := p + v
							g := got[i*n+j]
							if p != p && v != v {
								if g == g {
									t.Fatalf("m=%d k=%d n=%d perRow=%v: c[%d][%d] = %v, want NaN (NaN product plus NaN bias)", m, k, n, perRow, i, j, g)
								}
								continue
							}
							if !sameFloatBits(g, want) {
								t.Fatalf("m=%d k=%d n=%d perRow=%v: c[%d][%d] = %v, product %v plus bias %v gives %v", m, k, n, perRow, i, j, g, p, v, want)
							}
						}
					}
				}
			}
		}
	}
}

// sameFloatBits reports whether a and b have the same bits.
func sameFloatBits[F Float](a, b F) bool {
	switch a := any(a).(type) {
	case float32:
		return math.Float32bits(a) == math.Float32bits(any(b).(float32))
	default:
		return math.Float64bits(a.(float64)) == math.Float64bits(any(b).(float64))
	}
}

// TestGemmLargeAgainstNaive exercises the blocked paths (register-tile
// remainders on every edge, k beyond one cache block).
func TestGemmLargeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, dims := range [][3]int{{5, 300, 7}, {9, 257, 13}, {4, 256, 8}, {1, 513, 1}, {6, 3, 31}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(rng, m*k)
		b := randMat(rng, k*n)
		c := make([]float64, m*n)
		Gemm(c, a, b, m, k, n, false)
		matricesClose(t, c, naiveMatMul(a, b, m, k, n), "Gemm large")
	}
}

func TestGemmAccumulate(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.IntN(9), 1+rng.IntN(9), 1+rng.IntN(9)
		a := randMat(rng, m*k)
		b := randMat(rng, k*n)
		seed := randMat(rng, m*n)

		c := append([]float64(nil), seed...)
		Gemm(c, a, b, m, k, n, true)
		want := naiveMatMul(a, b, m, k, n)
		for i := range want {
			want[i] += seed[i]
		}
		matricesClose(t, c, want, "Gemm accumulate")
	}
}

// TestGemmATBLongReduction pins the rank-1 panel path (m above
// gemmATBPanelMin) and its narrow-n scalar fallbacks, which the random
// small-shape tests never reach.
func TestGemmATBLongReduction(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	for _, dims := range [][3]int{{100, 5, 7}, {64, 9, 3}, {97, 4, 16}, {128, 13, 1}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(rng, m*k)
		b := randMat(rng, m*n)
		c := make([]float64, k*n)
		GemmATB(c, a, b, m, k, n, false)
		matricesClose(t, c, naiveMatMul(transpose(a, m, k), b, k, m, n), "GemmATB long reduction")
	}
}

func TestGemmATBAccumulate(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.IntN(9), 1+rng.IntN(9), 1+rng.IntN(9)
		a := randMat(rng, m*k)
		b := randMat(rng, m*n)
		seed := randMat(rng, k*n)

		c := append([]float64(nil), seed...)
		GemmATB(c, a, b, m, k, n, true)
		want := naiveMatMul(transpose(a, m, k), b, k, m, n)
		for i := range want {
			want[i] += seed[i]
		}
		matricesClose(t, c, want, "GemmATB accumulate")
	}
}

func TestGemmABTAccumulate(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.IntN(9), 1+rng.IntN(9), 1+rng.IntN(9)
		a := randMat(rng, m*k)
		b := randMat(rng, n*k)
		seed := randMat(rng, m*n)

		c := append([]float64(nil), seed...)
		GemmABT(c, a, b, m, k, n, true)
		want := naiveMatMul(a, transpose(b, n, k), m, k, n)
		for i := range want {
			want[i] += seed[i]
		}
		matricesClose(t, c, want, "GemmABT accumulate")
	}
}

func TestSumRowsAcc(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6} // 2×3
	dst := []float64{100, 200, 300}
	SumRowsAcc(dst, a, 2, 3)
	matricesClose(t, dst, []float64{105, 207, 309}, "SumRowsAcc")
}

func TestMatMulIdentity(t *testing.T) {
	// A·I = A.
	n := 4
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	rng := rand.New(rand.NewPCG(9, 10))
	a := randMat(rng, 3*n)
	c := make([]float64, 3*n)
	Gemm(c, a, id, 3, n, n, false)
	matricesClose(t, c, a, "Gemm identity")
}

func TestAddRowVector(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6} // 2×3
	v := []float64{10, 20, 30}
	AddRowVector(a, v, 2, 3)
	want := []float64{11, 22, 33, 14, 25, 36}
	matricesClose(t, a, want, "AddRowVector")
}

func TestMatMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Gemm(make([]float64, 4), make([]float64, 3), make([]float64, 4), 2, 2, 2, false)
}

// fmaF is a fused multiply-add rounded once to F. At float32 the float64
// FMA is exact enough: the product of two float32 values is exact in
// float64, and the one float64 rounding of the sum sits 29 bits below the
// float32 rounding that follows.
func fmaF[F Float](a, b, c F) F {
	return F(math.FMA(float64(a), float64(b), float64(c)))
}

// abtDotInPinnedOrder computes one dot product of GemmABT the way the
// summation order is pinned. On the assembly path an element of the
// row-pair × column-quad interior accumulates its whole-vector prefix in
// `lanes` interleaved FMA chains, folds the upper half of the lanes onto
// the lower (one vector add), then neighbours pairwise down to one value
// (horizontal adds), and adds the tail products one at a time; every other
// element — edges, short
// reductions, builds without the kernel — is the front-to-back sum of
// individually rounded products.
func abtDotInPinnedOrder[F Float](x, y []F, lanes int, interior bool) F {
	k := len(x)
	var s F
	p := 0
	if interior && lanes > 0 && k >= lanes {
		acc := make([]F, lanes)
		for ; p+lanes <= k; p += lanes {
			for l := range acc {
				acc[l] = fmaF(x[p+l], y[p+l], acc[l])
			}
		}
		for l := 0; l < lanes/2; l++ {
			acc[l] += acc[l+lanes/2]
		}
		for w := lanes / 2; w > 1; w /= 2 {
			for l := 0; l < w/2; l++ {
				acc[l] = acc[2*l] + acc[2*l+1]
			}
		}
		s = acc[0]
	}
	for ; p < k; p++ {
		s += x[p] * y[p]
	}
	return s
}

// TestGemmABTSummationOrder pins GemmABT bit for bit, not to a tolerance:
// the conv weight gradient and every dense input gradient go through it,
// and the run hashes depend on the order in which each of its dot products
// is summed. Shapes cover zero to three vector steps with every tail
// length, odd row counts and every column remainder, stored and
// accumulated.
func TestGemmABTSummationOrder(t *testing.T) {
	t.Run("f64", testGemmABTSummationOrder[float64])
	t.Run("f32", testGemmABTSummationOrder[float32])
}

func testGemmABTSummationOrder[F Float](t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	randF := func(n int) []F {
		v := make([]F, n)
		for i := range v {
			v[i] = F(rng.NormFloat64())
		}
		return v
	}
	lanes := 0
	if kn := kernelsFor[F](); kn.abt2 != nil {
		lanes = kn.wide / 2
	}
	for m := 0; m <= 5; m++ {
		for n := 0; n <= 9; n++ {
			for k := 0; k <= 31; k++ {
				for _, acc := range []bool{false, true} {
					a, b, seed := randF(m*k), randF(n*k), randF(m*n)
					c := append([]F(nil), seed...)
					GemmABT(c, a, b, m, k, n, acc)
					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							interior := i < m&^1 && j < n&^3
							want := abtDotInPinnedOrder(a[i*k:(i+1)*k], b[j*k:(j+1)*k], lanes, interior)
							if acc {
								want += seed[i*n+j]
							}
							if got := c[i*n+j]; bitsOf(got) != bitsOf(want) {
								t.Fatalf("m=%d k=%d n=%d acc=%v: c[%d][%d] = %v (%#x), pinned order gives %v (%#x)",
									m, k, n, acc, i, j, got, bitsOf(got), want, bitsOf(want))
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkGEMM tracks the matrix-product kernels every layer lowers
// onto, at the shapes the substrate actually runs: square references plus
// the skinny products of the dense and LSTM layers and the im2col conv
// products (W·col, dW, and dX shapes). flops/s is the metric to watch
// when touching the kernels or their knobs (see DESIGN.md §2).
func BenchmarkGEMM(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"square64", 64, 64, 64},
		{"square128", 128, 128, 128},
		{"dense-fwd-24x256x64", 24, 256, 64},
		{"lstm-gates-24x16x64", 24, 16, 64},
		{"conv-fwd-8x72x64", 8, 72, 64},
		{"conv-fwd-16x144x16", 16, 144, 16},
	}
	r := rng.New(7)
	for _, s := range shapes {
		a := make([]float64, s.m*s.k)
		bb := make([]float64, s.k*s.n)
		c := make([]float64, s.m*s.n)
		for i := range a {
			a[i] = r.Normal(0, 1)
		}
		for i := range bb {
			bb[i] = r.Normal(0, 1)
		}
		flops := float64(2 * s.m * s.k * s.n)
		b.Run("Gemm/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gemm(c, a, bb, s.m, s.k, s.n, false)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds(), "flops/s")
		})
	}
	// The transposed products at their gradient shapes: dW += Xᵀ·dY and
	// dX = dY·Wᵀ for the batch-24 dense layer above.
	const m, k, n = 24, 256, 64
	x := make([]float64, m*k)
	dy := make([]float64, m*n)
	for i := range x {
		x[i] = r.Normal(0, 1)
	}
	for i := range dy {
		dy[i] = r.Normal(0, 1)
	}
	b.Run("GemmATB/dW-24x256x64", func(b *testing.B) {
		dw := make([]float64, k*n)
		for i := 0; i < b.N; i++ {
			GemmATB(dw, x, dy, m, k, n, true)
		}
		b.ReportMetric(float64(2*m*k*n)*float64(b.N)/b.Elapsed().Seconds(), "flops/s")
	})
	b.Run("GemmABT/dX-24x64x256", func(b *testing.B) {
		w := make([]float64, k*n)
		dx := make([]float64, m*k)
		for i := 0; i < b.N; i++ {
			GemmABT(dx, dy, w, m, n, k, false)
		}
		b.ReportMetric(float64(2*m*k*n)*float64(b.N)/b.Elapsed().Seconds(), "flops/s")
	})
}
