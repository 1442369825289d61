package compress

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/rng"
)

// FuzzCodecRoundtrip drives every codec over arbitrary vectors — any
// length, any bit pattern including NaN and ±Inf — and checks the codec
// contract: encode/decode never panics, and when the input is entirely
// finite the decoded vector is entirely finite too. TopK must also equal
// the frozen reference encoder, and every codec's error-feedback steps the
// frozen reference steps (reference_test.go), bit for bit.
func FuzzCodecRoundtrip(f *testing.F) {
	f.Add(uint8(0), uint8(50), []byte{})
	f.Add(uint8(1), uint8(50), []byte{}) // top-k of an empty vector
	f.Add(uint8(1), uint8(10), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), uint8(3), []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0xff})
	f.Add(uint8(1), uint8(100), []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	// A Normal delta at the adult MLP's length under top-k 5 %, so the
	// sampled threshold bound runs from the first seed on.
	g := rng.New(17)
	adult := make([]byte, 8*1354)
	for i := 0; i < len(adult); i += 8 {
		binary.LittleEndian.PutUint64(adult[i:], math.Float64bits(g.Normal(0, 0.01)))
	}
	f.Add(uint8(1), uint8(4), adult)
	f.Fuzz(func(t *testing.T, kind, param uint8, raw []byte) {
		var c Codec
		switch kind % 3 {
		case 0:
			c = None{}
		case 1:
			// Fractions across (0, 1], including degenerate tiny k.
			c = &TopK{Frac: (float64(param%100) + 1) / 100}
		default:
			c = &Int8{Chunk: int(param%64) + 1}
		}
		// Reinterpret the raw bytes as float64s, byte patterns untouched
		// so NaN payloads and subnormals come through.
		d := len(raw) / 8
		if d > 1<<12 {
			d = 1 << 12
		}
		x := make([]float64, d)
		finite := true
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				finite = false
			}
		}

		var p Payload
		scratch := make([]float64, d)
		c.Encode(&p, x, rng.New(uint64(param)), scratch)
		if p.N != d {
			t.Fatalf("%s: payload N = %d, want %d", c.Name(), p.N, d)
		}
		if p.Bytes() < 0 {
			t.Fatalf("%s: negative Bytes %d", c.Name(), p.Bytes())
		}
		dst := make([]float64, d)
		c.Decode(dst, &p)
		if finite {
			for i, v := range dst {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: finite input decoded to %v at %d (x[%d]=%v)", c.Name(), v, i, i, x[i])
				}
			}
		}
		if tk, ok := c.(*TopK); ok {
			var want Payload
			refTopKEncode(tk.Frac, &want, x)
			if err := sameTopK(&p, &want); err != nil {
				t.Fatalf("%s over %d coordinates: %v", c.Name(), d, err)
			}
		}
		// TopK's drop-NaN contract: a NaN coordinate is never selected, so
		// no transmitted value is NaN and every NaN position decodes to 0.
		if p.Form == KindTopK {
			for j, v := range p.Val {
				if math.IsNaN(v) {
					t.Fatalf("topk transmitted NaN at payload slot %d (index %d)", j, p.Idx[j])
				}
			}
			for i, v := range x {
				if math.IsNaN(v) && dst[i] != 0 {
					t.Fatalf("topk NaN coordinate %d decoded to %v, want 0", i, dst[i])
				}
			}
		}
		// The error-feedback wrapper must be just as total, and its residual
		// must come out finite whatever the input (the reset contract).
		e := make([]float64, d)
		copyX := make([]float64, d)
		copy(copyX, x)
		EncodeEF(c, &p, copyX, e, rng.New(uint64(kind)), scratch)
		for i, v := range e {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: EncodeEF left non-finite residual %v at %d", c.Name(), v, i)
			}
		}
		// Every codec's error-feedback steps must equal the frozen
		// reference steps from the residual that step left, with float64
		// and float32 residuals.
		e32 := make([]float32, d)
		for i, v := range e {
			e32[i] = float32(v)
		}
		if err := sameEF(c, &p, x, e, uint64(param), scratch); err != nil {
			t.Fatalf("%s over %d coordinates, f64 residual: %v", c.Name(), d, err)
		}
		if err := sameEF(c, &p, x, e32, uint64(param), scratch); err != nil {
			t.Fatalf("%s over %d coordinates, f32 residual: %v", c.Name(), d, err)
		}
	})
}
