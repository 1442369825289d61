package vecmath

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Differential tests: the float32 instantiation of every generic driver
// against the float64 instantiation on identical inputs, within an ulp-scaled tolerance. The float64 result on
// float32-representable inputs is within one f64 rounding of exact, so it
// serves as the reference; the f32 path may accumulate one rounding per
// reduction step, giving an error bound of roughly k·ε₃₂ relative to the
// sum of absolute terms. The bound below uses a generous constant (the
// accumulation is random-signed, so typical error is √k·ε₃₂) while
// staying far below anything a broken kernel — wrong lane, stale
// accumulator, off-by-one tail — would produce. Sizes are chosen to
// straddle every dispatch boundary: below the AVX threshold, exactly on a
// lane multiple, and with every tail length.

// randVec32 returns matched f32/f64 vectors with identical values.
func randVec32(rng *rand.Rand, n int) ([]float32, []float64) {
	x32 := make([]float32, n)
	x64 := make([]float64, n)
	for i := range x32 {
		v := float32(rng.NormFloat64())
		x32[i] = v
		x64[i] = float64(v)
	}
	return x32, x64
}

// tol32 is the ulp-scaled error budget for a length-k f32 reduction whose
// terms have absolute sum absSum.
func tol32(k int, absSum float64) float64 {
	const eps32 = 1.0 / (1 << 23)
	return (8 + float64(k)) * eps32 * (absSum + 1e-30)
}

// diffClose fails unless got (f32 path) matches want (f64 instantiation) within
// the reduction tolerance.
func diffClose(t *testing.T, label string, got float32, want, tol float64) {
	t.Helper()
	if d := math.Abs(float64(got) - want); d > tol || math.IsNaN(float64(got)) {
		t.Fatalf("%s: f32 %v vs f64 %v, |diff| %g > tol %g", label, got, want, d, tol)
	}
}

// sizes straddling the 8/16-lane boundaries and the scalar fallback.
var diffSizes = []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 100, 257}

func TestElementwise32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, n := range diffSizes {
		x32, x64 := randVec32(rng, n)
		y32, y64 := randVec32(rng, n)

		// AXPY: one product and one add per element.
		g32 := append([]float32(nil), y32...)
		g64 := append([]float64(nil), y64...)
		AXPY(0.37, x32, g32)
		AXPY(0.37, x64, g64)
		for i := range g32 {
			diffClose(t, "AXPY", g32[i], g64[i], tol32(2, math.Abs(g64[i])+math.Abs(x64[i])))
		}

		// Add / Sub: exact single-rounding ops.
		s32 := make([]float32, n)
		s64 := make([]float64, n)
		Add(s32, x32, y32)
		Add(s64, x64, y64)
		for i := range s32 {
			diffClose(t, "Add", s32[i], s64[i], tol32(1, math.Abs(s64[i])))
		}
		Sub(s32, x32, y32)
		Sub(s64, x64, y64)
		for i := range s32 {
			diffClose(t, "Sub", s32[i], s64[i], tol32(1, math.Abs(s64[i])))
		}

		// In-place Add (dst aliases a), the form AddRowVector, SumRowsAcc
		// and col2im use: same bits as the out-of-place result.
		copy(s32, x32)
		Add(s32, s32, y32)
		for i := range s32 {
			if want := x32[i] + y32[i]; s32[i] != want {
				t.Fatalf("aliased Add n=%d: [%d] = %v, want %v", n, i, s32[i], want)
			}
		}
	}
}

func TestFused32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for _, n := range diffSizes {
		x32, x64 := randVec32(rng, n)
		y32, y64 := randVec32(rng, n)
		z32, z64 := randVec32(rng, n)

		a32, b32 := float32(-0.05), float32(0.85)
		AXPYPY(a32, x32, b32, y32, z32)
		AXPYPY(float64(a32), x64, float64(b32), y64, z64)
		for i := range z32 {
			scale := math.Abs(z64[i]) + math.Abs(x64[i]) + math.Abs(y64[i])
			diffClose(t, "AXPYPY", z32[i], z64[i], tol32(4, scale))
		}

		d32 := make([]float32, n)
		d64 := make([]float64, n)
		SubScale(d32, 0.31, x32, y32)
		SubScale(d64, 0.31, x64, y64)
		for i := range d32 {
			diffClose(t, "SubScale", d32[i], d64[i], tol32(2, math.Abs(x64[i])+math.Abs(y64[i])))
		}
	}
}

// TestWidenNarrowRoundTrip pins the exactness property the fl bridge
// buffers rely on: Narrow∘Widen is the identity on float32 values.
func TestWidenNarrowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	x32, _ := randVec32(rng, 257)
	wide := make([]float64, len(x32))
	back := make([]float32, len(x32))
	Widen(wide, x32)
	Narrow(back, wide)
	for i := range x32 {
		if back[i] != x32[i] {
			t.Fatalf("Narrow(Widen(x))[%d] = %v, want %v", i, back[i], x32[i])
		}
	}
}

func TestLengthMismatchPanics32(t *testing.T) {
	for name, fn := range map[string]func(){
		"Add":     func() { Add(make([]float32, 2), make([]float32, 3), make([]float32, 3)) },
		"Sub":     func() { Sub(make([]float32, 2), make([]float32, 3), make([]float32, 3)) },
		"AXPY":    func() { AXPY(1, make([]float32, 2), make([]float32, 3)) },
		"AXPYPY":  func() { AXPYPY(1, make([]float32, 2), 1, make([]float32, 3), make([]float32, 3)) },
		"Gemm32":  func() { Gemm32(make([]float32, 4), make([]float32, 3), make([]float32, 4), 2, 2, 2, false) },
		"GemmATB": func() { GemmATB(make([]float32, 4), make([]float32, 3), make([]float32, 4), 2, 2, 2, false) },
		"GemmABT": func() { GemmABT(make([]float32, 4), make([]float32, 3), make([]float32, 4), 2, 2, 2, false) },
		"Widen":   func() { Widen(make([]float64, 2), make([]float32, 3)) },
		"Narrow":  func() { Narrow(make([]float32, 2), make([]float64, 3)) },
		// The int8 quantizer sits beside the bridge in convert.go.
		"QuantizeInt8 q": func() { QuantizeInt8(make([]int8, 3), make([]float64, 4), 1, make([]float64, 4)) },
		"QuantizeInt8 u": func() { QuantizeInt8(make([]int8, 4), make([]float64, 4), 1, make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}
