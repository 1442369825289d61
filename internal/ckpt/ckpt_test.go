package ckpt

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func TestScalarRoundTrip(t *testing.T) {
	u64s := []uint64{0, 1, math.MaxUint64}
	ints := []int{0, -1, 1 << 40, math.MinInt}
	f64s := []float64{0, -0.5, math.Inf(-1), math.Pi}
	yes, no, nan := true, false, math.NaN()

	var b bytes.Buffer
	w := Save(&b)
	for i := range u64s {
		w.U64(&u64s[i])
	}
	for i := range ints {
		w.Int(&ints[i])
	}
	for i := range f64s {
		w.F64(&f64s[i])
	}
	w.Bool(&yes)
	w.Bool(&no)
	w.F64(&nan)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if w.Loading() {
		t.Fatal("Save codec reports Loading")
	}

	r := Load(bytes.NewReader(b.Bytes()))
	for _, want := range u64s {
		var got uint64
		if r.U64(&got); r.Err() != nil || got != want {
			t.Fatalf("U64 = %d, %v; want %d", got, r.Err(), want)
		}
	}
	for _, want := range ints {
		var got int
		if r.Int(&got); r.Err() != nil || got != want {
			t.Fatalf("Int = %d, %v; want %d", got, r.Err(), want)
		}
	}
	for _, want := range f64s {
		var got float64
		if r.F64(&got); r.Err() != nil || got != want {
			t.Fatalf("F64 = %v, %v; want %v", got, r.Err(), want)
		}
	}
	var got bool
	if r.Bool(&got); r.Err() != nil || !got {
		t.Fatalf("Bool = %v, %v; want true", got, r.Err())
	}
	if r.Bool(&got); r.Err() != nil || got {
		t.Fatalf("Bool = %v, %v; want false", got, r.Err())
	}
	// NaN round-trips bit-exactly through the IEEE encoding.
	var f float64
	if r.F64(&f); r.Err() != nil || !math.IsNaN(f) {
		t.Fatalf("F64 = %v, %v; want NaN", f, r.Err())
	}
}

// TestU32sRoundTrip moves a fixed-length uint32 slice as four bytes a
// value, and a load cut short fails instead of filling in zeros.
func TestU32sRoundTrip(t *testing.T) {
	want := []uint32{0, 1, 1 << 31, math.MaxUint32}
	var b bytes.Buffer
	w := Save(&b)
	w.U32s(want)
	if err := w.Err(); err != nil || b.Len() != 4*len(want) {
		t.Fatalf("saved %d bytes, err %v; want %d", b.Len(), err, 4*len(want))
	}
	got := make([]uint32, len(want))
	r := Load(bytes.NewReader(b.Bytes()))
	if r.U32s(got); r.Err() != nil {
		t.Fatal(r.Err())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("U32s[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	r = Load(bytes.NewReader(b.Bytes()[:b.Len()-1]))
	if r.U32s(got); r.Err() == nil {
		t.Fatal("U32s loaded from a truncated stream")
	}
}

// TestRows32Bits moves fp32 rows as their own 4-byte bits: NaNs with
// payloads (a signaling one too, which a widening conversion would
// quiet), ±Inf, −0 and subnormals come back bit for bit, and a row of n
// values costs its presence byte, its length word and 4n bytes. A load
// cut short fails.
func TestRows32Bits(t *testing.T) {
	bits := []uint32{
		0x7fc00001, // quiet NaN with a payload
		0xff800001, // negative signaling NaN
		0x7f800000, // +Inf
		0xff800000, // -Inf
		0x80000000, // -0
		0x00000001, // smallest subnormal
		0x807fffff, // largest negative subnormal
		0x3f800000, // 1
	}
	row := make([]float32, len(bits))
	for i, b := range bits {
		row[i] = math.Float32frombits(b)
	}
	var b bytes.Buffer
	w := Save(&b)
	w.Rows32([][]float32{row, nil}, len(row))
	if want := 8 + (1 + 8 + 4*len(row)) + 1; w.Err() != nil || b.Len() != want {
		t.Fatalf("saved %d bytes, err %v; want %d", b.Len(), w.Err(), want)
	}
	got := [][]float32{nil, nil}
	r := Load(bytes.NewReader(b.Bytes()))
	if r.Rows32(got, len(row)); r.Err() != nil || got[1] != nil {
		t.Fatalf("Rows32 = %v, %v", got, r.Err())
	}
	for i, want := range bits {
		if g := math.Float32bits(got[0][i]); g != want {
			t.Errorf("value %d: bits %#08x, want %#08x", i, g, want)
		}
	}
	r = Load(bytes.NewReader(b.Bytes()[:b.Len()-3]))
	if r.Rows32(make([][]float32, 2), len(row)); r.Err() == nil {
		t.Fatal("Rows32 loaded from a truncated stream")
	}
}

func TestSliceRoundTrip(t *testing.T) {
	f64s := []float64{1.5, -2.25, 0}
	ints := []int{3, -7, 1 << 33}
	var noInts []int
	raw := []byte("checkpoint")
	rows := [][]float64{{1, 2}, nil, {3, 4}}
	rows32 := [][]float32{nil, {0.1, -7}}
	var absent []float64
	z := []float64{5, 6}

	var b bytes.Buffer
	w := Save(&b)
	w.F64s(f64s)
	w.F64s(nil)
	w.Ints(&ints)
	w.Ints(&noInts)
	w.Bytes(&raw)
	w.Rows(rows, 2)
	w.Rows32(rows32, 2)
	w.Row(&absent, 2)
	w.Row(&z, 2)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := Load(bytes.NewReader(b.Bytes()))
	got := make([]float64, len(f64s))
	r.F64s(got)
	r.F64s(nil)
	for i := range f64s {
		if got[i] != f64s[i] {
			t.Fatalf("f64s[%d] = %v, want %v", i, got[i], f64s[i])
		}
	}
	gotInts := make([]int, 0, 8) // capacity is reused, contents replaced
	r.Ints(&gotInts)
	if r.Err() != nil || len(gotInts) != len(ints) {
		t.Fatalf("Ints = %v, %v", gotInts, r.Err())
	}
	for i := range ints {
		if gotInts[i] != ints[i] {
			t.Fatalf("ints[%d] = %d, want %d", i, gotInts[i], ints[i])
		}
	}
	stale := []int{9, 9}
	if r.Ints(&stale); r.Err() != nil || len(stale) != 0 {
		t.Fatalf("empty int slice decoded as %v, %v", stale, r.Err())
	}
	var gotRaw []byte
	if r.Bytes(&gotRaw); r.Err() != nil || !bytes.Equal(gotRaw, raw) {
		t.Fatalf("Bytes = %q, %v", gotRaw, r.Err())
	}
	// Live rows start in the opposite allocation state: nil where the
	// checkpoint has a row, allocated where it has none.
	gotRows := [][]float64{nil, {9, 9}, {0, 0}}
	r.Rows(gotRows, 2)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if gotRows[1] != nil {
		t.Fatalf("nil row decoded as %v", gotRows[1])
	}
	if gotRows[0][1] != 2 || gotRows[2][0] != 3 {
		t.Fatalf("row contents mismatch: %v", gotRows)
	}
	gotRows32 := [][]float32{{1, 1}, nil}
	r.Rows32(gotRows32, 2)
	if r.Err() != nil || gotRows32[0] != nil || gotRows32[1][0] != rows32[1][0] || gotRows32[1][1] != -7 {
		t.Fatalf("Rows32 = %v, %v", gotRows32, r.Err())
	}
	gotAbsent, gotZ := []float64{1, 1}, []float64(nil)
	r.Row(&gotAbsent, 2)
	r.Row(&gotZ, 2)
	if r.Err() != nil || gotAbsent != nil || len(gotZ) != 2 || gotZ[1] != 6 {
		t.Fatalf("Row = %v, %v, %v", gotAbsent, gotZ, r.Err())
	}

	// A table of another size, or a row of another width, is rejected.
	b.Reset()
	Save(&b).Rows(rows, 2)
	r = Load(bytes.NewReader(b.Bytes()))
	if r.Rows(make([][]float64, 2), 2); r.Err() == nil {
		t.Fatal("row count mismatch accepted")
	}
	r = Load(bytes.NewReader(b.Bytes()))
	if r.Rows(make([][]float64, 3), 3); r.Err() == nil {
		t.Fatal("row width mismatch accepted")
	}
}

func TestReadF64sInto(t *testing.T) {
	var b bytes.Buffer
	Save(&b).F64s([]float64{1, 2, 3})
	dst := make([]float64, 3)
	r := Load(bytes.NewReader(b.Bytes()))
	if r.F64s(dst); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if dst[2] != 3 {
		t.Fatalf("dst = %v", dst)
	}
	short := make([]float64, 2)
	r = Load(bytes.NewReader(b.Bytes()))
	if r.F64s(short); r.Err() == nil {
		t.Fatal("length mismatch accepted")
	}
	// A slice longer than the codec's scratch moves in several chunks.
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i) / 3
	}
	b.Reset()
	Save(&b).F64s(long)
	back := make([]float64, len(long))
	r = Load(bytes.NewReader(b.Bytes()))
	if r.F64s(back); r.Err() != nil {
		t.Fatal(r.Err())
	}
	for i := range long {
		if back[i] != long[i] {
			t.Fatalf("long[%d] = %v, want %v", i, back[i], long[i])
		}
	}
}

func TestCorruptInputErrors(t *testing.T) {
	// Forged huge length: rejected (over limit) or fails on truncation —
	// never a length-sized allocation up front.
	var b bytes.Buffer
	n := uint64(MaxElems) + 1
	Save(&b).U64(&n)
	var ints []int
	r := Load(bytes.NewReader(b.Bytes()))
	if r.Ints(&ints); r.Err() == nil {
		t.Fatal("oversized length accepted")
	}
	b.Reset()
	n = MaxElems // within limit, but no payload follows
	Save(&b).U64(&n)
	r = Load(bytes.NewReader(b.Bytes()))
	if r.Ints(&ints); !errors.Is(r.Err(), io.ErrUnexpectedEOF) && !errors.Is(r.Err(), io.EOF) {
		t.Fatalf("truncated payload: err = %v", r.Err())
	}
	var raw []byte
	r = Load(bytes.NewReader(b.Bytes()))
	if r.Bytes(&raw); !errors.Is(r.Err(), io.ErrUnexpectedEOF) && !errors.Is(r.Err(), io.EOF) {
		t.Fatalf("truncated bytes: err = %v", r.Err())
	}
	var flag bool
	r = Load(bytes.NewReader([]byte{7}))
	if r.Bool(&flag); r.Err() == nil {
		t.Fatal("invalid bool byte accepted")
	}
	var u uint64
	r = Load(bytes.NewReader([]byte{1, 2}))
	if r.U64(&u); r.Err() == nil {
		t.Fatal("short read accepted")
	}

	// The first failure sticks, is reported under its section, and later
	// calls leave their values alone.
	r = Load(bytes.NewReader([]byte{7}))
	r.Section("flags")
	r.Bool(&flag)
	first := r.Err()
	u = 42
	r.Section("later")
	r.U64(&u)
	r.Failf("second failure")
	if r.Err() != first || u != 42 || first.Error() != "flags: ckpt: invalid bool byte 0x7" {
		t.Fatalf("sticky error: first %v, now %v, u = %d", first, r.Err(), u)
	}

	// Expect and ExpectLen fail a load that disagrees with the live state.
	b.Reset()
	w := Save(&b)
	if !w.Expect(true, "part") {
		t.Fatal("Expect did not return the live value")
	}
	w.ExpectLen(3, "entries")
	r = Load(bytes.NewReader(b.Bytes()))
	if r.Expect(true, "part"); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.ExpectLen(4, "entries"); r.Err() == nil {
		t.Fatal("count mismatch accepted")
	}
	r = Load(bytes.NewReader(b.Bytes()))
	if r.Expect(false, "part") || r.Err() == nil {
		t.Fatal("presence mismatch accepted")
	}
}

type fakeCursor struct{ state []byte }

func (c *fakeCursor) AppendBinary(b []byte) ([]byte, error) { return append(b, c.state...), nil }
func (c *fakeCursor) UnmarshalBinary(d []byte) error        { c.state = append([]byte(nil), d...); return nil }

func TestCursorRoundTripAndSkip(t *testing.T) {
	var b bytes.Buffer
	src := &fakeCursor{state: []byte{9, 8, 7}}
	w := Save(&b)
	w.Cursor(src, false) // Save ignores apply
	v := 42
	w.Int(&v)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	dst := &fakeCursor{}
	r := Load(bytes.NewReader(b.Bytes()))
	if r.Cursor(dst, true); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !bytes.Equal(dst.state, src.state) {
		t.Fatalf("cursor state = %v", dst.state)
	}
	// Skip must consume exactly the cursor's bytes and leave the live one.
	kept := &fakeCursor{state: []byte{1}}
	r = Load(bytes.NewReader(b.Bytes()))
	r.Cursor(kept, false)
	var got int
	if r.Int(&got); r.Err() != nil || got != 42 {
		t.Fatalf("after skip: %d, %v", got, r.Err())
	}
	if !bytes.Equal(kept.state, []byte{1}) {
		t.Fatalf("skipped cursor was applied: %v", kept.state)
	}

	// Nested runs the side that matches the direction, on the same stream.
	save := func(w io.Writer) error { _, err := w.Write([]byte{0xAB}); return err }
	load := func(r io.Reader) error {
		var one [1]byte
		if _, err := io.ReadFull(r, one[:]); err != nil || one[0] != 0xAB {
			t.Fatalf("nested load read %x, %v", one, err)
		}
		return nil
	}
	b.Reset()
	w = Save(&b)
	w.Nested(save, load)
	w.Int(&v)
	r = Load(bytes.NewReader(b.Bytes()))
	r.Nested(save, load)
	if r.Int(&got); r.Err() != nil || got != 42 {
		t.Fatalf("after nested: %d, %v", got, r.Err())
	}
}

// TestSaveAllocs pins the package doc: with the codec built and the
// buffer warm, saving scalars, slices and cursors allocates nothing.
func TestSaveAllocs(t *testing.T) {
	var b bytes.Buffer
	w := Save(&b)
	n, f, flag := 7, 0.5, true
	f64s := make([]float64, 1000)
	rows32 := [][]float32{make([]float32, 300), nil}
	ints := []int{1, 2, 3}
	raw := []byte("payload")
	cur := &fakeCursor{state: []byte("pcg:0123456789abcdef")}
	save := func() {
		b.Reset()
		w.Cursor(cur, false)
		w.Int(&n)
		w.F64(&f)
		w.Bool(&flag)
		w.Expect(true, "part")
		w.F64s(f64s)
		w.Rows32(rows32, 300)
		w.Ints(&ints)
		w.Bytes(&raw)
	}
	save()
	if allocs := testing.AllocsPerRun(20, save); allocs != 0 || w.Err() != nil {
		t.Fatalf("save allocated %v times per run (err %v), want 0", allocs, w.Err())
	}
}
