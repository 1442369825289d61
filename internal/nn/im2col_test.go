package nn

import (
	"testing"

	"repro/internal/rng"
)

// im2colNaive is the reference packing: walk every (row, position) pair
// and apply the definition directly, with explicit bounds checks.
func im2colNaive(dst, x []float64, inC, inH, inW, k, stride, pad, outH, outW int) {
	n := outH * outW
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				r := (ic*k+ky)*k + kx
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy := oy*stride - pad + ky
						ix := ox*stride - pad + kx
						v := 0.0
						if iy >= 0 && iy < inH && ix >= 0 && ix < inW {
							v = x[(ic*inH+iy)*inW+ix]
						}
						dst[r*n+oy*outW+ox] = v
					}
				}
			}
		}
	}
}

func TestIm2colAgainstNaive(t *testing.T) {
	r := rng.New(31)
	cases := []struct {
		inC, inH, inW, k, stride, pad int
	}{
		{1, 5, 5, 3, 1, 0},
		{2, 5, 5, 3, 1, 1},
		{2, 6, 6, 3, 2, 1},
		{3, 5, 7, 3, 1, 1}, // rectangular
		{2, 8, 5, 3, 2, 2},
		{1, 6, 6, 5, 2, 2}, // kernel wider than stride, heavy clipping
		{2, 4, 4, 4, 4, 0}, // stride == kernel, no overlap
		{1, 3, 3, 3, 1, 2}, // padding larger than typical, tiny input
	}
	for _, c := range cases {
		outH := (c.inH+2*c.pad-c.k)/c.stride + 1
		outW := (c.inW+2*c.pad-c.k)/c.stride + 1
		if outH <= 0 || outW <= 0 {
			t.Fatalf("bad case %+v", c)
		}
		x := randInput(r, c.inC*c.inH*c.inW)
		kp := c.inC * c.k * c.k
		got := make([]float64, kp*outH*outW)
		want := make([]float64, kp*outH*outW)
		Im2col(got, x, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, outH, outW)
		im2colNaive(want, x, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, outH, outW)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("case %+v: element %d: got %v, want %v", c, i, got[i], want[i])
			}
		}
	}
}

// TestCol2imAdjoint verifies <Im2col(x), u> == <x, col2im(u)> for random
// x and u, which characterizes col2im as the exact adjoint of Im2col — the
// property the conv backward pass relies on.
func TestCol2imAdjoint(t *testing.T) {
	r := rng.New(37)
	const (
		inC, inH, inW  = 2, 6, 5
		k, stride, pad = 3, 2, 1
	)
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	kp := inC * k * k
	n := outH * outW

	x := randInput(r, inC*inH*inW)
	u := randInput(r, kp*n)
	col := make([]float64, kp*n)
	Im2col(col, x, inC, inH, inW, k, stride, pad, outH, outW)
	back := make([]float64, inC*inH*inW)
	col2im(newPatchTable(inC, inH, inW, k, stride, pad, outH, outW), back, u)

	var lhs, rhs float64
	for i := range col {
		lhs += col[i] * u[i]
	}
	for i := range x {
		rhs += x[i] * back[i]
	}
	if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("adjoint mismatch: <im2col(x),u>=%v, <x,col2im(u)>=%v", lhs, rhs)
	}
}

// TestAccuracyParallelMatchesSequential pins the worker-pool evaluation to
// the sequential result: the shards partition the batches and counting is
// integer, so any worker count must produce the identical accuracy.
func TestAccuracyParallelMatchesSequential(t *testing.T) {
	net := MLP(6, 3)
	r := rng.New(41)
	params := net.InitParams(r)
	const total, maxBatch = 103, 8 // 13 batches, last one ragged
	xs := randInput(r, total*6)
	labels := randLabels(r, total, 3)

	eng := NewEngine(net, maxBatch)
	want := eng.accuracyWorkers(params, xs, labels, 1)
	for _, workers := range []int{2, 3, 7, 16, 64} {
		if got := eng.accuracyWorkers(params, xs, labels, workers); got != want {
			t.Fatalf("accuracy with %d workers = %v, sequential = %v", workers, got, want)
		}
	}
	if got := eng.Accuracy(params, xs, labels); got != want {
		t.Fatalf("Accuracy = %v, sequential = %v", got, want)
	}
}
