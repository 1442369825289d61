package vecmath

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// scatterRef is the scalar reference for ScatterAXPY.
func scatterRef(alpha float64, idx []int32, val, y []float64) {
	for j, i := range idx {
		y[i] += alpha * val[j]
	}
}

// gatherRef is the scalar reference for GatherDot.
func gatherRef(idx []int32, val, y []float64) float64 {
	var s float64
	for j, i := range idx {
		s += val[j] * y[i]
	}
	return s
}

// sparseCase draws k entries over a d-length dense vector. Indices are
// unique and ascending (the top-k codec's layout) unless dup is set, in
// which case every other index repeats its predecessor.
func sparseCase(r *rng.RNG, d, k int, dup bool) (idx []int32, val, y []float64) {
	perm := r.Perm(d)[:k]
	idx = make([]int32, k)
	for j, p := range perm {
		idx[j] = int32(p)
	}
	if dup {
		for j := 1; j < k; j += 2 {
			idx[j] = idx[j-1]
		}
	}
	val = make([]float64, k)
	for j := range val {
		val[j] = r.Normal(0, 1)
	}
	y = make([]float64, d)
	for i := range y {
		y[i] = r.Normal(0, 1)
	}
	return idx, val, y
}

// TestScatterAXPY checks the dispatched kernel (asm head + Go tail on
// amd64) against the scalar reference, which it must match bitwise: the
// products use plain multiplies and the scatter adds are sequential in
// both paths.
func TestScatterAXPY(t *testing.T) {
	r := rng.New(11)
	for _, k := range []int{0, 1, 3, 4, 5, 8, 17, 64, 641} {
		for _, dup := range []bool{false, true} {
			idx, val, y := sparseCase(r, 2048, k, dup)
			want := Clone(y)
			scatterRef(0.37, idx, val, want)
			got := Clone(y)
			ScatterAXPY(0.37, idx, val, got)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("k=%d dup=%v: y[%d] = %v, want %v", k, dup, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGatherDot checks the dispatched kernel against the scalar
// reference within accumulation-order tolerance (the asm path reduces
// four partial sums; see sparse.go).
func TestGatherDot(t *testing.T) {
	r := rng.New(13)
	for _, k := range []int{0, 1, 3, 4, 5, 8, 17, 64, 641} {
		idx, val, y := sparseCase(r, 2048, k, false)
		want := gatherRef(idx, val, y)
		got := GatherDot(idx, val, y)
		tol := 1e-12 * math.Max(1, math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("k=%d: GatherDot = %v, want %v", k, got, want)
		}
	}
}

// TestScatterGatherAgainstDense pins the sparse kernels' semantics
// against their dense equivalents: scattering into a zero vector then
// densely accumulating must equal scattering directly, and GatherDot
// must equal the dense Dot of the densified vector.
func TestScatterGatherAgainstDense(t *testing.T) {
	r := rng.New(17)
	const d, k = 512, 37
	idx, val, y := sparseCase(r, d, k, false)
	dense := make([]float64, d)
	for j, i := range idx {
		dense[i] = val[j]
	}

	got := Clone(y)
	ScatterAXPY(-1.5, idx, val, got)
	want := Clone(y)
	AXPY(-1.5, dense, want)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-15 {
			t.Fatalf("scatter vs dense AXPY: y[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	dotWant := Dot(dense, y)
	dotGot := GatherDot(idx, val, y)
	if math.Abs(dotWant-dotGot) > 1e-12*math.Max(1, math.Abs(dotWant)) {
		t.Fatalf("GatherDot = %v, want dense Dot %v", dotGot, dotWant)
	}
}

// BenchmarkDenseAggregate is the dense baseline BenchmarkSparse's legs
// are read against: one aggregation pass over 32 uploads of a d=65536
// model, AXPYing every coordinate of every update, at float64 and at
// float32 (half the memory traffic for a memory-bound kernel, so ~2x is
// the expected ratio). A top-k pass scatters only k of the d coordinates
// per upload, the O(n·k)-vs-O(n·d) win the codec buys the scheduler.
func BenchmarkDenseAggregate(b *testing.B) {
	const d, n = 65536, 32
	r := rng.New(11)
	dst := make([]float64, d)
	dense := make([][]float64, n)
	for u := range dense {
		dense[u] = make([]float64, d)
		for i := range dense[u] {
			dense[u][i] = r.Normal(0, 1)
		}
	}
	b.Run("f64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for u := range dense {
				AXPY(1.0/n, dense[u], dst)
			}
		}
	})
	b.Run("f32", func(b *testing.B) {
		dst32 := make([]float32, d)
		dense32 := make([][]float32, n)
		for u := range dense32 {
			dense32[u] = make([]float32, d)
			Narrow(dense32[u], dense[u])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for u := range dense32 {
				AXPY(1.0/n, dense32[u], dst32)
			}
		}
	})
}

func BenchmarkSparse(b *testing.B) {
	r := rng.New(7)
	const d = 65536
	for _, frac := range []float64{0.01, 0.1} {
		k := int(frac * d)
		idx, val, y := sparseCase(r, d, k, false)
		b.Run("ScatterAXPY/"+fracName(frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ScatterAXPY(0.5, idx, val, y)
			}
		})
		b.Run("GatherDot/"+fracName(frac), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += GatherDot(idx, val, y)
			}
			_ = s
		})
	}
}

func fracName(f float64) string {
	if f == 0.01 {
		return "k1pct"
	}
	return "k10pct"
}
