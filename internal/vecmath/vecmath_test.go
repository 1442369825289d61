package vecmath

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

const eps = 1e-12

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestCloneIndependent(t *testing.T) {
	x := []float64{1, 2, 3}
	y := Clone(x)
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone must not share backing array")
	}
}

func TestAddSub(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	dst := make([]float64, 3)
	Add(dst, a, b)
	want := []float64{5, 7, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Add: dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	Sub(dst, b, a)
	want = []float64{3, 3, 3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Sub: dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestAddAliasing(t *testing.T) {
	a := []float64{1, 2, 3}
	Add(a, a, a) // a = a + a
	want := []float64{2, 4, 6}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("aliased Add: a[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}

func TestAXPY(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	AXPY(2, x, y)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("AXPY: y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestScale(t *testing.T) {
	x := []float64{1, -2, 3}
	Scale(-2, x)
	want := []float64{-2, 4, -6}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("Scale: x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestDotNorm(t *testing.T) {
	a := []float64{3, 4}
	if got := Dot(a, a); got != 25 {
		t.Fatalf("Dot = %v, want 25", got)
	}
	if got := Norm2(a); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestMaxAbsSumMean(t *testing.T) {
	x := []float64{-3, 1, 2}
	if got := MaxAbs(x); got != 3 {
		t.Fatalf("MaxAbs = %v, want 3", got)
	}
	if got := Sum(x); got != 0 {
		t.Fatalf("Sum = %v, want 0", got)
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{name: "identical", a: []float64{1, 2}, b: []float64{1, 2}, want: 1},
		{name: "opposite", a: []float64{1, 0}, b: []float64{-1, 0}, want: -1},
		{name: "orthogonal", a: []float64{1, 0}, b: []float64{0, 1}, want: 0},
		{name: "zero vector", a: []float64{0, 0}, b: []float64{1, 1}, want: 0},
		{name: "both zero", a: []float64{0, 0}, b: []float64{0, 0}, want: 0},
		{name: "scaled copy", a: []float64{1, 2, 3}, b: []float64{2, 4, 6}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := CosineSimilarity(tt.a, tt.b)
			if !almostEqual(got, tt.want, 1e-12) {
				t.Fatalf("CosineSimilarity = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCosineSimilarityBounded(t *testing.T) {
	f := func(a, b []float64) bool {
		n := min(len(a), len(b))
		c := CosineSimilarity(a[:n], b[:n])
		return c >= -1-1e-9 && c <= 1+1e-9 && !math.IsNaN(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKernelsAllocFree holds the server-side and GEMM kernels to no
// allocation per call, the contract the 0-allocs-per-round scheduler
// builds on: the three GEMM forms at a dense layer's shapes, AXPY at both
// precisions, the Eq. (7) reductions — MaxAbs, the paired norm, the
// cosine and its fused and paired forms — the sparse scatter/gather pair,
// and the convolution's packing and its adjoint at ResNetLite's stride-2
// transition.
func TestKernelsAllocFree(t *testing.T) {
	r := rng.New(5)
	const m, k, n, d = 24, 256, 64, 4096
	a, bm, c := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	x, y := make([]float64, d), make([]float64, d)
	for _, v := range [][]float64{a, bm, x, y} {
		for i := range v {
			v[i] = r.Normal(0, 1)
		}
	}
	x32, y32 := make([]float32, d), make([]float32, d)
	Narrow(x32, x)
	idx, val, _ := sparseCase(r, d, d/100, false)
	conv, size, _ := convTable(8, 8, 8, 3, 2, 1)
	patches := NewGatherTable(conv)
	adjoint := patches.Adjoint(size)
	col, dcol, dx := make([]float64, len(conv)), make([]float64, len(conv)+1), make([]float64, size)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Gemm", func() { Gemm(c, a, bm, m, k, n, false) }},
		{"GemmATB", func() { GemmATB(bm, a, c, m, k, n, true) }},
		{"GemmABT", func() { GemmABT(a, c, bm, m, n, k, false) }},
		{"AXPY", func() { AXPY(0.5, x, y) }},
		{"AXPY-f32", func() { AXPY(0.5, x32, y32) }},
		{"MaxAbs", func() { MaxAbs(x) }},
		{"ScanPair", func() { ScanPair(x, y) }},
		{"CosineSimilarity", func() { CosineSimilarity(x, y) }},
		{"NormCosinePair", func() {
			ref := NewCosineRef(y)
			ref.NormCosine(x)
			ref.NormCosinePair(x, y)
			sx, sy := ScanPair(x, y)
			ref.CosinePair(x, y, sx, sy)
		}},
		{"ScatterAXPY", func() { ScatterAXPY(0.5, idx, val, y) }},
		{"GatherDot", func() { GatherDot(idx, val, y) }},
		{"Gather", func() { Gather(col, x[:size+1], patches) }},
		{"GatherSum", func() { GatherSum(dx, dcol, adjoint) }},
	} {
		if allocs := testing.AllocsPerRun(20, tc.op); allocs != 0 {
			t.Errorf("%s allocates %v times per call", tc.name, allocs)
		}
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 1, 1},
		{-5, 0, 1, 0},
		{0.5, 0, 1, 0.5},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Fatalf("Clamp(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2, 3}) {
		t.Fatal("finite vector reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("Inf not detected")
	}
	if !AllFinite(nil) {
		t.Fatal("empty vector must be finite")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestDotProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(20)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			c[i] = rng.NormFloat64()
		}
		if !almostEqual(Dot(a, b), Dot(b, a), 1e-12) {
			t.Fatal("Dot not symmetric")
		}
		sum := make([]float64, n)
		Add(sum, a, c)
		if !almostEqual(Dot(sum, b), Dot(a, b)+Dot(c, b), 1e-9) {
			t.Fatal("Dot not additive")
		}
	}
}

// Property: triangle inequality for Norm2.
func TestNormTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(30)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		sum := make([]float64, n)
		Add(sum, a, b)
		if Norm2(sum) > Norm2(a)+Norm2(b)+1e-9 {
			t.Fatal("triangle inequality violated")
		}
	}
}
