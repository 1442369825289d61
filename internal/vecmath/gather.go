package vecmath

import "fmt"

// Index-table gathers: a convolution's patch packing (nn's im2col) is a
// Gather over a table resolved once per layer, and its adjoint (col2im) a
// GatherSum over that table's transpose. Both tables are checked when they
// are built, so the assembly bodies that walk them need no per-element
// bounds check.

// gatherLanes is the element count of one gather: four int32 offsets
// fetch four float64 elements into one YMM vector.
const gatherLanes = 4

// GatherTable is a list of int32 offsets into a source vector, each
// checked at construction to be non-negative. span is one past the
// largest, the shortest source a gather over the table may read.
type GatherTable struct {
	idx  []int32
	span int
}

// NewGatherTable wraps idx, which it keeps and the caller must not modify.
// It panics on a negative offset.
func NewGatherTable(idx []int32) GatherTable {
	span := 0
	for _, v := range idx {
		if v < 0 {
			panic(fmt.Sprintf("vecmath: NewGatherTable: negative offset %d", v))
		}
		span = max(span, int(v)+1)
	}
	return GatherTable{idx: idx, span: span}
}

// Len returns the number of entries, the length of a Gather's dst.
func (t GatherTable) Len() int { return len(t.idx) }

// Gather sets dst[i] = src[t[i]] for every entry i of t. The float64 table
// entry runs it as AVX2 gathers, four offsets a vector; it moves bits and
// computes nothing, so every build gives the same dst.
func Gather[F Float](dst, src []F, t GatherTable) {
	checkLen("Gather", len(dst), len(t.idx))
	if len(src) < t.span {
		panic(fmt.Sprintf("vecmath: Gather: source has %d elements, the table reads up to %d", len(src), t.span))
	}
	i := 0
	if kn := kernelsFor[F](); kn.gather != nil && len(dst) >= gatherLanes {
		i = len(dst) &^ (gatherLanes - 1)
		kn.gather(&dst[0], &src[0], &t.idx[0], i)
	}
	dst = dst[i:]
	for j, off := range t.idx[i:] {
		dst[j] = src[off]
	}
}

// SumTable is the adjoint of a GatherTable that reads an n-element vector
// staged with zeros past its end (entries ≥ n read the zeros). It keeps
// the forward table for the scatter form and its transpose for the gather
// form:
//
//   - scatter: entry i adds src[i] into dst[scatter[i]], skipped when
//     scatter[i] ≥ n;
//   - rows: for output q, slot j holds the j-th entry i, ascending, with
//     scatter[i] = q, and every output is padded to slots entries with
//     len(scatter), the zero slot GatherSum writes past src's end. Outputs
//     are stored in blocks of four, lane-interleaved: slot j of output
//     q = 4b+l sits at rows[(b·slots+j)·4+l], so one vector load fetches
//     slot j's offsets for four consecutive outputs. The last block's
//     lanes past n read only the zero slot.
type SumTable struct {
	scatter []int32
	rows    []int32
	n       int
	slots   int
}

// Adjoint returns the SumTable of t for an n-element vector: GatherSum
// over it is the transpose of Gather over t, with the source staged as
// x followed by zeros.
func (t GatherTable) Adjoint(n int) SumTable {
	count := make([]int32, n)
	slots := 1 // an output no entry reads still takes one zero slot
	for _, q := range t.idx {
		if int(q) < n {
			count[q]++
			slots = max(slots, int(count[q]))
		}
	}
	zero := int32(len(t.idx))
	blocks := (n + gatherLanes - 1) / gatherLanes
	rows := make([]int32, blocks*slots*gatherLanes)
	for i := range rows {
		rows[i] = zero
	}
	clear(count)
	for i, q := range t.idx {
		if int(q) < n {
			rows[(int(q)/gatherLanes*slots+int(count[q]))*gatherLanes+int(q)%gatherLanes] = int32(i)
			count[q]++
		}
	}
	return SumTable{scatter: t.idx, rows: rows, n: n, slots: slots}
}

// GatherSum sets every dst[q] to the sum of src[i] over the entries i of
// the forward table that read q, accumulated from +0 in ascending i: the
// result of zeroing dst and then scatter-adding src front to back. src has
// one element more than the table; GatherSum sets that last element to
// zero and reads it for padding slots.
//
// The float64 table entry walks the transpose, four outputs a vector, one
// gather per slot. Each output gets the scatter's add chain followed by
// +0 additions, which change nothing: a round-to-nearest sum that starts
// at +0 never reaches −0, and x + (+0) = x for every other x, NaN
// included. Other builds and float32 run the scatter, which is faster
// than the transposed walk written in Go.
func GatherSum[F Float](dst, src []F, t SumTable) {
	checkLen("GatherSum", len(dst), t.n)
	checkLen("GatherSum src", len(src), len(t.scatter)+1)
	src[len(t.scatter)] = 0
	kn := kernelsFor[F]()
	if kn.gatherSum == nil {
		Zero(dst)
		src = src[:len(t.scatter)]
		for i, q := range t.scatter {
			if int(q) < len(dst) {
				dst[q] += src[i]
			}
		}
		return
	}
	head := t.n &^ (gatherLanes - 1)
	if head > 0 {
		kn.gatherSum(&dst[0], &src[0], &t.rows[0], t.slots, head/gatherLanes)
	}
	gatherSumGo(dst, src, t, head)
}

// gatherSumGo is the gather form in Go, in the assembly's order: outputs
// q ≥ from, each summed from +0 over its slots in turn. It finishes the
// outputs past the last whole block of four.
func gatherSumGo[F Float](dst, src []F, t SumTable, from int) {
	for q := from; q < t.n; q++ {
		row := t.rows[q/gatherLanes*t.slots*gatherLanes+q%gatherLanes:]
		var s F
		for j := 0; j < t.slots; j++ {
			s += src[row[j*gatherLanes]]
		}
		dst[q] = s
	}
}
