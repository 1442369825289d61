package vecmath

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// convTable is the im2col offset table of one convolution geometry, from
// the definition: entry (r, p), r = (ic·k+ky)·k+kx and p = oy·outW+ox,
// holds the offset of input element (ic, oy·stride−pad+ky,
// ox·stride−pad+kx), or the input size where that tap is padding. ok is
// false when the kernel does not fit.
func convTable(inC, inH, inW, k, stride, pad int) (idx []int32, size int, ok bool) {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if inH+2*pad < k || inW+2*pad < k {
		return nil, 0, false
	}
	size = inC * inH * inW
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						off := size
						if iy >= 0 && iy < inH && ix >= 0 && ix < inW {
							off = (ic*inH+iy)*inW + ix
						}
						idx = append(idx, int32(off))
					}
				}
			}
		}
	}
	return idx, size, true
}

type convGeom struct{ inC, inH, inW, k, stride, pad int }

// gatherGeoms is every convolution of the model zoo — the fmnist CNN's
// two, ResNetLite's stem, residual convolutions at both widths and its
// stride-2 transition — and a sweep of k ∈ {1, 3, 5}, stride ∈ {1, 2},
// pad ∈ {0, 1, 2} and inC 1…8 over two odd-sided inputs, whose sizes
// leave every tail of 0–3 elements past the last block of four.
func gatherGeoms() []convGeom {
	gs := []convGeom{
		{1, 8, 8, 3, 1, 1}, {6, 4, 4, 3, 1, 1},
		{3, 8, 8, 3, 1, 1}, {8, 8, 8, 3, 1, 1}, {8, 8, 8, 3, 2, 1}, {16, 4, 4, 3, 1, 1},
	}
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for inC := 1; inC <= 8; inC++ {
					gs = append(gs, convGeom{inC, 5, 7, k, stride, pad}, convGeom{inC, 3, 5, k, stride, pad})
				}
			}
		}
	}
	return gs
}

// gatherInputs returns sources of n elements: the specials of
// reducePool (NaN payloads of either sign, ±Inf, ±0, subnormals, the
// largest finite value, ±1) in several rotations, random normals, and
// mixes of 1e16, 1 and −1e16 (and of ±1 with subnormals and ±0), on which
// a sum's value depends on its order.
func gatherInputs(rng *rand.Rand, n int) [][]float64 {
	pool := reducePool()
	var vs [][]float64
	for _, rot := range []int{0, 3, 11} {
		v := make([]float64, n)
		for i := range v {
			v[i] = pool[(i*7+rot)%len(pool)]
		}
		vs = append(vs, v)
	}
	for _, mix := range [][]float64{
		{1e16, 1, -1e16},
		{1, 1e16, -1e16, -1, 0.5},
		{math.SmallestNonzeroFloat64, 1, -1, math.Copysign(0, -1), 0, -math.SmallestNonzeroFloat64},
	} {
		v := make([]float64, n)
		for i := range v {
			v[i] = mix[rng.IntN(len(mix))]
		}
		vs = append(vs, v)
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return append(vs, v)
}

// sameOrBothNaN reports whether a and b have the same bits or are both
// NaN. A sum that meets two NaN operands carries one of their payloads,
// and which one is not fixed by the source: Go orders the operands of a
// commutative add as register allocation suits.
func sameOrBothNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// col2imRef is col2im's front-to-back scatter: dst zeroed, then src[i]
// added into dst[idx[i]] in ascending i, padding entries skipped.
func col2imRef(dst, src []float64, idx []int32) {
	clear(dst)
	for i, q := range idx {
		if int(q) < len(dst) {
			dst[q] += src[i]
		}
	}
}

// sumMismatch runs GatherSum (the assembly entry with its Go tail where
// the build has it, the scatter otherwise) and gatherSumGo, the
// transposed walk in the assembly's order, over t and src, and describes
// the first output either gives that the front-to-back scatter over idx
// does not, or returns "". src's last element, the zero slot, and dst
// start as NaN, so a walk that skipped writing the zero slot or an output
// shows.
func sumMismatch(t SumTable, idx []int32, src []float64) string {
	n := t.n
	want := make([]float64, n)
	col2imRef(want, src[:len(idx)], idx)
	for _, form := range []struct {
		name string
		run  func(dst, src []float64)
	}{
		{"GatherSum", func(dst, src []float64) { GatherSum(dst, src, t) }},
		{"gatherSumGo", func(dst, src []float64) { src[len(idx)] = 0; gatherSumGo(dst, src, t, 0) }},
	} {
		s := slices.Clone(src)
		s[len(idx)] = math.NaN()
		got := make([]float64, n)
		for i := range got {
			got[i] = math.NaN()
		}
		form.run(got, s)
		for q := range got {
			if !sameOrBothNaN(got[q], want[q]) {
				return fmt.Sprintf("%s: dst[%d] = %v (%#x), the scatter gives %v (%#x)",
					form.name, q, got[q], math.Float64bits(got[q]), want[q], math.Float64bits(want[q]))
			}
		}
	}
	return ""
}

// orderWitness returns a source for the adjoint of idx over n outputs on
// which every output with three or more entries sums to 0 in ascending
// entry order and to 1 in descending order: its first entry is 1, its
// second 1e16 and its last −1e16 (1 + 1e16 rounds to 1e16), any others 0.
// Padding entries hold NaN, which no form may read.
func orderWitness(idx []int32, n int) []float64 {
	count := make([]int, n)
	for _, q := range idx {
		if int(q) < n {
			count[q]++
		}
	}
	src := make([]float64, len(idx)+1)
	rank := make([]int, n)
	for i, q := range idx {
		if int(q) >= n {
			src[i] = math.NaN()
			continue
		}
		switch r := rank[q]; {
		case r == 0:
			src[i] = 1
		case r == 1:
			src[i] = 1e16
		case r == count[q]-1:
			src[i] = -1e16
		}
		rank[q]++
	}
	return src
}

// TestGatherContract pins the convolution's packing and its adjoint on
// every geometry of gatherGeoms and every source of gatherInputs: Gather —
// the AVX2 entry plus Go tail, or the Go loop under -tags noasm — equals
// the staged gather dst[i] = src[idx[i]] bit for bit, NaN payloads
// included, and GatherSum and the transposed walk equal the front-to-back
// scatter (a NaN only has to be NaN). A transpose whose slots run in
// descending order must fail the same comparison on orderWitness's source
// wherever an output sums three or more entries, so the test can tell the
// order it pins.
func TestGatherContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 59))
	for _, g := range gatherGeoms() {
		idx, size, ok := convTable(g.inC, g.inH, g.inW, g.k, g.stride, g.pad)
		if !ok {
			continue
		}
		gt := NewGatherTable(idx)
		st := gt.Adjoint(size)
		for vi, x := range gatherInputs(rng, size) {
			staged := append(slices.Clone(x), 0)
			got := make([]float64, len(idx))
			Gather(got, staged, gt)
			for i, off := range idx {
				if math.Float64bits(got[i]) != math.Float64bits(staged[off]) {
					t.Fatalf("%+v input %d: Gather dst[%d] = %#x, want %#x", g, vi, i, math.Float64bits(got[i]), math.Float64bits(staged[off]))
				}
			}
		}
		witness := orderWitness(idx, size)
		for vi, src := range append(gatherInputs(rng, len(idx)+1), witness) {
			if msg := sumMismatch(st, idx, src); msg != "" {
				t.Fatalf("%+v input %d: %s", g, vi, msg)
			}
		}
		if st.slots >= 3 && sumMismatch(descendingSlots(st), idx, witness) == "" {
			t.Fatalf("%+v: a transpose with its slots in descending order passed", g)
		}
	}
}

// descendingSlots returns a copy of t with each output's slots, padding
// left last, in descending entry order.
func descendingSlots(t SumTable) SumTable {
	d := t
	d.rows = slices.Clone(t.rows)
	zero := int32(len(t.scatter))
	for q := 0; q < t.n; q++ {
		base := q/gatherLanes*t.slots*gatherLanes + q%gatherLanes
		var slot []int32
		for j := 0; j < t.slots; j++ {
			if v := t.rows[base+j*gatherLanes]; v != zero {
				slot = append(slot, v)
			}
		}
		slices.Reverse(slot)
		for j, v := range slot {
			d.rows[base+j*gatherLanes] = v
		}
	}
	return d
}

func TestGatherPanicsOnShortSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for a source shorter than the table's span")
		}
	}()
	Gather(make([]float64, 2), make([]float64, 3), NewGatherTable([]int32{0, 3}))
}
