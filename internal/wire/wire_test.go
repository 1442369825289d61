package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/rng"
)

// samplePayloads builds one payload per form from a deterministic vector,
// using the real codecs so the encodings exercised are the ones the engine
// produces.
func samplePayloads(t testing.TB, d int) map[string]*compress.Payload {
	t.Helper()
	r := rng.New(7)
	x := make([]float64, d)
	for i := range x {
		x[i] = r.Normal(0, 1)
	}
	scratch := make([]float64, d)
	out := map[string]*compress.Payload{}
	for name, codec := range map[string]compress.Codec{
		"none": compress.None{},
		"topk": &compress.TopK{Frac: 0.05},
		"int8": &compress.Int8{Chunk: 64},
	} {
		p := &compress.Payload{}
		codec.Encode(p, x, rng.New(11), scratch)
		out[name] = p
	}
	return out
}

func samePayload(t *testing.T, want, got *compress.Payload) {
	t.Helper()
	if want.Form != got.Form || want.N != got.N || want.ChunkLen != got.ChunkLen {
		t.Fatalf("payload header mismatch: want {%v %d %d}, got {%v %d %d}",
			want.Form, want.N, want.ChunkLen, got.Form, got.N, got.ChunkLen)
	}
	if len(want.Idx) != len(got.Idx) || len(want.Val) != len(got.Val) ||
		len(want.Q) != len(got.Q) || len(want.Scale) != len(got.Scale) {
		t.Fatalf("payload length mismatch")
	}
	for i := range want.Idx {
		if want.Idx[i] != got.Idx[i] {
			t.Fatalf("Idx[%d]: want %d, got %d", i, want.Idx[i], got.Idx[i])
		}
	}
	for i := range want.Val {
		if math.Float64bits(want.Val[i]) != math.Float64bits(got.Val[i]) {
			t.Fatalf("Val[%d]: want %x, got %x", i, want.Val[i], got.Val[i])
		}
	}
	for i := range want.Q {
		if want.Q[i] != got.Q[i] {
			t.Fatalf("Q[%d]: want %d, got %d", i, want.Q[i], got.Q[i])
		}
	}
	for i := range want.Scale {
		if math.Float64bits(want.Scale[i]) != math.Float64bits(got.Scale[i]) {
			t.Fatalf("Scale[%d]: want %x, got %x", i, want.Scale[i], got.Scale[i])
		}
	}
}

func TestPayloadRoundtrip(t *testing.T) {
	for name, p := range samplePayloads(t, 512) {
		t.Run(name, func(t *testing.T) {
			buf := AppendPayload(nil, p)
			if got, want := len(buf), PayloadWireSize(p); got != want {
				t.Fatalf("PayloadWireSize = %d, encoded %d bytes", want, got)
			}
			var dec compress.Payload
			rest, err := UnmarshalPayload(&dec, buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d unconsumed bytes", len(rest))
			}
			samePayload(t, p, &dec)
		})
	}
}

// TestTopKWireBeatsInMemory pins the tentpole size claim: varint index
// deltas make the top-k wire encoding smaller than the in-memory
// 12 B/coordinate accounting of Payload.Bytes.
func TestTopKWireBeatsInMemory(t *testing.T) {
	p := samplePayloads(t, 4096)["topk"]
	if len(p.Idx) == 0 {
		t.Fatal("empty topk payload")
	}
	wireSize := PayloadWireSize(p)
	if wireSize >= p.Bytes() {
		t.Fatalf("wire encoding %d B not smaller than in-memory %d B for k=%d", wireSize, p.Bytes(), len(p.Idx))
	}
	perCoord := float64(wireSize) / float64(len(p.Idx))
	if perCoord >= 12 {
		t.Fatalf("wire cost %.2f B/coord, want < 12", perCoord)
	}
}

// TestPayloadRoundtripReusesBuffers pins the allocation-free contract:
// marshal into a warm buffer and unmarshal into a warm payload allocate
// nothing.
func TestPayloadRoundtripReusesBuffers(t *testing.T) {
	for name, p := range samplePayloads(t, 1024) {
		t.Run(name, func(t *testing.T) {
			buf := AppendPayload(nil, p)
			var dec compress.Payload
			if _, err := UnmarshalPayload(&dec, buf); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				buf = AppendPayload(buf[:0], p)
				if _, err := UnmarshalPayload(&dec, buf); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm roundtrip allocated %.1f times per op", allocs)
			}
		})
	}
}

func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	good := AppendPayload(nil, samplePayloads(t, 256)["topk"])
	cases := map[string][]byte{
		"empty":          {},
		"unknown form":   {0x7f},
		"truncated":      good[:len(good)-3],
		"forged count":   {formDense, 0xff, 0xff, 0xff, 0x7f},
		"zero delta":     {formTopK, 4, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"idx past n":     {formTopK, 2, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0},
		"chunkless int8": {formInt8, 4, 0},
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			var p compress.Payload
			if _, err := UnmarshalPayload(&p, b); err == nil {
				t.Fatalf("decode of %q input succeeded", name)
			}
			if p.N != 0 || len(p.Idx) != 0 || len(p.Val) != 0 || len(p.Q) != 0 || len(p.Scale) != 0 {
				t.Fatal("failed decode left partial state in payload")
			}
		})
	}
}

func TestFrameRoundtrip(t *testing.T) {
	var net bytes.Buffer
	body := []byte("hello federation")
	buf, err := WriteFrame(&net, FrameHello, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderLen+len(body) {
		t.Fatalf("frame length %d, want %d", len(buf), HeaderLen+len(body))
	}
	var fr Frame
	if err := ReadFrame(&net, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Type != FrameHello || !bytes.Equal(fr.Body, body) {
		t.Fatalf("frame roundtrip mismatch: type %d body %q", fr.Type, fr.Body)
	}
}

func TestReadFrameRejectsHostileHeaders(t *testing.T) {
	var fr Frame
	// Wrong magic.
	if err := ReadFrame(bytes.NewReader([]byte{0x00, Version, 1, 0, 0, 0, 0}), &fr); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
	// Wrong version.
	if err := ReadFrame(bytes.NewReader([]byte{Magic, 99, 1, 0, 0, 0, 0}), &fr); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted: %v", err)
	}
	// Forged length over a truncated stream must fail without committing
	// the claimed allocation.
	forged := []byte{Magic, Version, 1, 0xff, 0xff, 0xff, 0x0f}
	fr = Frame{}
	if err := ReadFrame(bytes.NewReader(forged), &fr); err == nil {
		t.Fatal("forged length accepted")
	}
	if cap(fr.Body) > 2*growChunk {
		t.Fatalf("forged length allocated %d bytes", cap(fr.Body))
	}
	// Length beyond MaxFrame rejected outright.
	huge := []byte{Magic, Version, 1, 0xff, 0xff, 0xff, 0xff}
	if err := ReadFrame(bytes.NewReader(huge), &fr); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("over-limit length accepted: %v", err)
	}
}

func TestReadFrameReusesBody(t *testing.T) {
	body := make([]byte, 3*growChunk+17)
	for i := range body {
		body[i] = byte(i)
	}
	var net bytes.Buffer
	if _, err := WriteFrame(&net, FrameDispatch, body, nil); err != nil {
		t.Fatal(err)
	}
	var fr Frame
	if err := ReadFrame(&net, &fr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Body, body) {
		t.Fatal("multi-chunk body mismatch")
	}
	// A warm Frame re-reading an equal-sized body allocates nothing.
	net.Reset()
	scratch := make([]byte, 0, HeaderLen+len(body))
	if _, err := WriteFrame(&net, FrameDispatch, body, scratch); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	readAllocs := testing.AllocsPerRun(10, func() {
		r.Reset(net.Bytes())
		if err := ReadFrame(r, &fr); err != nil {
			t.Fatal(err)
		}
	})
	if readAllocs != 0 {
		t.Fatalf("warm ReadFrame allocated %.1f times", readAllocs)
	}
}

// TestWriteFrameReusesBuffer: WriteFrame into a warm scratch buffer and a
// warm writer allocates nothing.
func TestWriteFrameReusesBuffer(t *testing.T) {
	body := make([]byte, 4096)
	var net bytes.Buffer
	scratch, err := WriteFrame(&net, FrameUpdates, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		net.Reset()
		if scratch, err = WriteFrame(&net, FrameUpdates, body, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm WriteFrame allocated %.1f times", allocs)
	}
}

// f64Specials are the float64 bit patterns the bulk codec must carry
// untouched: quiet and signalling NaNs with payload bits, ±0, ±Inf,
// subnormals and ±MaxFloat64.
var f64Specials = []uint64{
	0x7ff8_0000_0000_0123, 0xfff8_dead_beef_0001, // quiet NaNs
	0x7ff0_0000_0000_0001, 0xfff4_0000_0000_0456, // signalling NaNs
	0, 1 << 63, // ±0
	0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000, // ±Inf
	1, 0x800f_ffff_ffff_ffff, // subnormals
	0x7fef_ffff_ffff_ffff, 0xffef_ffff_ffff_ffff, // ±MaxFloat64
}

// TestF64sMatchesPerElement pins AppendF64s and Dec.F64s to AppendF64 and
// F64 loops, byte for byte and bit for bit, on the memmove path and the
// portable loop, appending at odd offsets so the destination bytes are
// unaligned.
func TestF64sMatchesPerElement(t *testing.T) {
	for _, path := range []struct {
		name string
		le   bool
	}{{"memmove", true}, {"portable", false}} {
		if path.le && !hostLittleEndian {
			continue
		}
		t.Run(path.name, func(t *testing.T) {
			defer func(old bool) { hostLittleEndian = old }(hostLittleEndian)
			hostLittleEndian = path.le
			r := rng.New(5)
			lengths := []int{1354}
			for n := 0; n <= 33; n++ {
				lengths = append(lengths, n)
			}
			for _, n := range lengths {
				x := make([]float64, n)
				for i := range x {
					if i%3 == 0 {
						x[i] = math.Float64frombits(f64Specials[(i/3)%len(f64Specials)])
					} else {
						x[i] = r.Normal(0, 1)
					}
				}
				for _, off := range []int{0, 1, 3, 7} {
					pre := bytes.Repeat([]byte{0xa5}, off)
					want := append([]byte(nil), pre...)
					for _, v := range x {
						want = AppendF64(want, v)
					}
					got := AppendF64s(append([]byte(nil), pre...), x)
					if !bytes.Equal(got, want) {
						t.Fatalf("n=%d off=%d: AppendF64s bytes differ from the AppendF64 loop", n, off)
					}

					d := Dec{B: want[off:]}
					back := make([]float64, n)
					d.F64s(back)
					ref := Dec{B: want[off:]}
					for i := range back {
						if g, w := math.Float64bits(back[i]), math.Float64bits(ref.F64()); g != w {
							t.Fatalf("n=%d off=%d i=%d: F64s bits %#x, F64 gives %#x", n, off, i, g, w)
						}
					}
					if d.Err != nil || ref.Err != nil || d.Len() != 0 {
						t.Fatalf("n=%d off=%d: err %v / %v, %d bytes left", n, off, d.Err, ref.Err, d.Len())
					}

					if n == 0 {
						continue
					}
					// A truncated body errors and leaves dst untouched.
					canary := math.Float64frombits(0x7ff8_0000_cafe_f00d)
					dst := make([]float64, n)
					for i := range dst {
						dst[i] = canary
					}
					d = Dec{B: want[off : len(want)-1]}
					d.F64s(dst)
					if d.Err == nil {
						t.Fatalf("n=%d off=%d: truncated body decoded", n, off)
					}
					for i, v := range dst {
						if math.Float64bits(v) != math.Float64bits(canary) {
							t.Fatalf("n=%d off=%d: truncated decode wrote dst[%d]", n, off, i)
						}
					}
				}
			}
		})
	}
}

// BenchmarkDenseWire reports the bulk float64 codec's throughput in GB/s
// of payload (encode plus decode) at the adult MLP's parameter count: one
// AppendF64s into a warm buffer and one F64s back out per op.
func BenchmarkDenseWire(b *testing.B) {
	const d = 1354
	r := rng.New(3)
	x, back := make([]float64, d), make([]float64, d)
	for i := range x {
		x[i] = r.Normal(0, 1)
	}
	buf := AppendF64s(nil, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendF64s(buf[:0], x)
		dec := Dec{B: buf}
		dec.F64s(back)
	}
	b.ReportMetric(2*8*d*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}
