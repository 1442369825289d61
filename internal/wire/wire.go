// Package wire defines the federation's transport encoding: a versioned,
// length-prefixed frame format plus a compact payload codec for compressed
// updates (DESIGN.md §11). The payload codec beats the in-memory cost
// model of compress.Payload.Bytes for sparse uploads — top-k indices are
// delta-encoded uvarints (typically 1–3 bytes each) instead of fixed
// 4-byte int32s — while int8 frames carry their per-chunk scales and dense
// fallback frames the raw float64 bits, both byte-exact.
//
// Both directions of the API are allocation-free on the hot path: every
// Append* function appends into a caller-owned buffer, and every decode
// reuses the destination's backing arrays, growing them only past a high-
// water mark. Decoders are hostile-input safe in the internal/ckpt style:
// element counts are validated against the bytes actually present before
// any array is grown, and frame bodies are read in bounded chunks, so a
// forged length fails cheaply instead of allocating gigabytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"repro/internal/compress"
)

// Frame header layout: magic, version, type, little-endian u32 body length.
const (
	// Magic is the first byte of every frame.
	Magic = 0xFB
	// Version is the protocol version; readers reject every other value.
	Version = 1
	// HeaderLen is the fixed frame-header size in bytes.
	HeaderLen = 7
	// MaxFrame bounds a frame body; longer lengths are rejected as forged.
	MaxFrame = 1 << 28
	// MaxElems bounds any element count decoded from a payload.
	MaxElems = 1 << 28
	// growChunk is the read-granularity for frame bodies: a forged length
	// over a truncated stream fails after at most one extra chunk of
	// allocation instead of committing the full claimed size up front.
	growChunk = 1 << 16
)

// FrameType tags a frame's meaning in the flserver protocol.
type FrameType byte

// Protocol frame types. Hello/Updates/Pong flow worker→server; Dispatch,
// Bye, Reject, the liveness probe Ping, and the failover pair
// Adopt/Restore flow server→worker. Adopt carries a Dispatch-shaped body
// the worker trains and discards (it advances the worker's per-client
// rng streams without re-uploading a result the server already holds);
// Restore is body-less and resets the worker to its freshly-started
// state before a full history replay. Hold and Resume are retired: the
// server's intake is bounded by dispatch, so no server sends them and a
// worker rejects them as unexpected. They keep their numbers so every
// later type keeps its own.
const (
	FrameHello FrameType = iota + 1
	FrameDispatch
	FrameUpdates
	FrameHold
	FrameResume
	FrameBye
	FrameReject
	FramePing
	FramePong
	FrameAdopt
	FrameRestore
)

// BeginFrame appends a frame header with a zero length to dst and returns
// the extended buffer. The caller appends the body and then patches the
// length with EndFrame, passing the offset len(dst) had before this call:
//
//	start := len(buf)
//	buf = wire.BeginFrame(buf, wire.FrameUpdates)
//	buf = append(buf, body...)
//	wire.EndFrame(buf, start)
func BeginFrame(dst []byte, t FrameType) []byte {
	return append(dst, Magic, Version, byte(t), 0, 0, 0, 0)
}

// EndFrame patches the body length of the frame begun at offset start.
// It panics if the body exceeds MaxFrame — frames are built by this
// process, so an oversized body is a bug, not hostile input.
func EndFrame(buf []byte, start int) {
	n := len(buf) - start - HeaderLen
	if n < 0 || n > MaxFrame {
		panic(fmt.Sprintf("wire: frame body %d bytes out of range", n))
	}
	binary.LittleEndian.PutUint32(buf[start+3:], uint32(n))
}

// Frame is one decoded frame. Body aliases the reader's reusable buffer
// and is only valid until the next ReadFrame into the same Frame.
type Frame struct {
	Type FrameType
	Body []byte
	// hdr is the reusable header scratch; a per-call array would escape
	// through the io.Reader interface and cost one allocation per frame.
	hdr [HeaderLen]byte
}

// ReadFrame reads one frame from r into fr, reusing fr.Body's capacity.
// The body is read in growChunk steps so a forged length over a truncated
// stream fails with bounded allocation.
func ReadFrame(r io.Reader, fr *Frame) error {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	if hdr[0] != Magic {
		return fmt.Errorf("wire: bad magic 0x%02x", hdr[0])
	}
	if hdr[1] != Version {
		return fmt.Errorf("wire: unsupported version %d (have %d)", hdr[1], Version)
	}
	n := int(binary.LittleEndian.Uint32(hdr[3:]))
	if n > MaxFrame {
		return fmt.Errorf("wire: frame body %d exceeds limit %d", n, MaxFrame)
	}
	fr.Type = FrameType(hdr[2])
	body := fr.Body[:0]
	for len(body) < n {
		chunk := min(n-len(body), growChunk)
		if cap(body) < len(body)+chunk {
			grown := make([]byte, len(body), len(body)+chunk)
			copy(grown, body)
			body = grown
		}
		m, err := io.ReadFull(r, body[len(body):len(body)+chunk])
		body = body[:len(body)+m]
		if err != nil {
			fr.Body = body
			return fmt.Errorf("wire: frame body truncated at %d/%d bytes: %w", len(body), n, err)
		}
	}
	fr.Body = body
	return nil
}

// WriteFrame writes one complete frame (header + body) to w using buf as
// scratch, returning the (possibly grown) buffer for reuse.
func WriteFrame(w io.Writer, t FrameType, body []byte, buf []byte) ([]byte, error) {
	buf = BeginFrame(buf[:0], t)
	buf = append(buf, body...)
	EndFrame(buf, 0)
	_, err := w.Write(buf)
	return buf, err
}

// Append helpers: little-endian primitives appended to a caller buffer.

// AppendU32 appends v little-endian.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends v little-endian.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendF64 appends v's IEEE-754 bits little-endian (bit-exact, NaN
// payloads included).
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// hostLittleEndian selects the bulk float64 path: on a little-endian host
// the wire bytes of a []float64 are its memory bytes, so AppendF64s and
// F64s are one copy. It is a variable only so tests can force the
// portable loop.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes is the byte view of x's backing array. Byte alignment is 1,
// so the view is valid for any float64 slice (checkptr accepts it).
func f64Bytes(x []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), 8*len(x))
}

// AppendF64s appends every element of x as AppendF64 would, byte for
// byte, growing dst once.
func AppendF64s(dst []byte, x []float64) []byte {
	if hostLittleEndian {
		return append(dst, f64Bytes(x)...)
	}
	dst = slices.Grow(dst, 8*len(x))
	for _, v := range x {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Dec is a bounds-checked decoder over a frame body. Every accessor
// returns the zero value once an underflow has occurred; check Err after
// a decode sequence (the ckpt cursor idiom — no panics on hostile input).
type Dec struct {
	B   []byte
	Err error
}

// fail records the first error.
func (d *Dec) fail(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf(format, args...)
	}
}

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.B) }

// Take consumes n bytes, which alias the underlying buffer.
func (d *Dec) Take(n int) []byte {
	if d.Err != nil {
		return nil
	}
	if n < 0 || n > len(d.B) {
		d.fail("wire: need %d bytes, have %d", n, len(d.B))
		return nil
	}
	b := d.B[:n]
	d.B = d.B[n:]
	return b
}

// Byte consumes one byte.
func (d *Dec) Byte() byte {
	b := d.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 consumes a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 consumes a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 consumes little-endian IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// F64s fills dst with len(dst) consecutive F64 values after one bounds
// check; on underflow it records the error and leaves dst untouched.
func (d *Dec) F64s(dst []float64) {
	b := d.Take(8 * len(dst))
	if len(b) == 0 {
		return
	}
	if hostLittleEndian {
		copy(f64Bytes(dst), b)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Uvarint consumes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.B)
	if n <= 0 {
		d.fail("wire: bad uvarint")
		return 0
	}
	d.B = d.B[n:]
	return v
}

// Count consumes a uvarint and validates it as an element count no larger
// than limit and representable by the bytes that remain at perElem bytes
// each (perElem >= 1) — the cheap-failure guard that rejects forged counts
// before any array is grown.
func (d *Dec) Count(limit int, perElem int) int {
	v := d.Uvarint()
	if d.Err != nil {
		return 0
	}
	if v > uint64(limit) {
		d.fail("wire: count %d exceeds limit %d", v, limit)
		return 0
	}
	if perElem > 0 && int(v) > len(d.B)/perElem {
		d.fail("wire: count %d needs %d bytes, have %d", v, int(v)*perElem, len(d.B))
		return 0
	}
	return int(v)
}

// Payload form tags on the wire.
const (
	formDense byte = 0
	formTopK  byte = 1
	formInt8  byte = 2
)

// AppendPayload appends p's wire encoding to dst. Layouts (all integers
// uvarint unless sized, all float64s raw little-endian bits):
//
//	dense: 0x00, n, n×f64
//	topk:  0x01, n, k, k×uvarint index deltas (first delta is idx[0]+1,
//	       later ones idx[j]−idx[j−1]; strictly ascending indices make
//	       every delta ≥ 1, so 0 never occurs and needs no escape),
//	       k×f64 values
//	int8:  0x02, n, chunkLen, ⌈n/chunkLen⌉×f64 scales, n×int8 quanta
//
// The scale count is derived from n and chunkLen rather than transmitted,
// so the two can never disagree.
func AppendPayload(dst []byte, p *compress.Payload) []byte {
	switch p.Form {
	case compress.KindTopK:
		dst = append(dst, formTopK)
		dst = AppendUvarint(dst, uint64(p.N))
		dst = AppendUvarint(dst, uint64(len(p.Idx)))
		prev := int32(-1)
		for _, i := range p.Idx {
			dst = AppendUvarint(dst, uint64(i-prev))
			prev = i
		}
		dst = AppendF64s(dst, p.Val)
	case compress.KindInt8:
		dst = append(dst, formInt8)
		dst = AppendUvarint(dst, uint64(len(p.Q)))
		dst = AppendUvarint(dst, uint64(p.ChunkLen))
		dst = AppendF64s(dst, p.Scale)
		for _, q := range p.Q {
			dst = append(dst, byte(q))
		}
	default:
		dst = AppendDense(dst, p.Val)
	}
	return dst
}

// AppendDense appends the dense encoding of a raw float64 vector — what an
// uncompressed run's worker uploads (byte-identical to encoding a None
// payload holding x).
func AppendDense(dst []byte, x []float64) []byte {
	dst = append(dst, formDense)
	dst = AppendUvarint(dst, uint64(len(x)))
	return AppendF64s(dst, x)
}

// DecodeDense decodes one dense payload straight into dst, accepting only
// the dense form with exactly len(dst) values. Form and count are checked
// before any value is written, so a rejected payload leaves dst untouched.
func DecodeDense(dst []float64, d *Dec) error {
	if form := d.Byte(); d.Err == nil && form != formDense {
		d.fail("wire: payload form 0x%02x, want dense", form)
	}
	if n := d.Count(MaxElems, 8); d.Err == nil && n != len(dst) {
		d.fail("wire: dense payload of %d values, want %d", n, len(dst))
	}
	d.F64s(dst)
	return d.Err
}

// PayloadWireSize returns the exact AppendPayload encoding size in bytes.
func PayloadWireSize(p *compress.Payload) int {
	n := 1 // form tag
	switch p.Form {
	case compress.KindTopK:
		n += uvarintLen(uint64(p.N)) + uvarintLen(uint64(len(p.Idx)))
		prev := int32(-1)
		for _, i := range p.Idx {
			n += uvarintLen(uint64(i - prev))
			prev = i
		}
		n += 8 * len(p.Val)
	case compress.KindInt8:
		n += uvarintLen(uint64(len(p.Q))) + uvarintLen(uint64(p.ChunkLen))
		n += 8*len(p.Scale) + len(p.Q)
	default:
		n += uvarintLen(uint64(len(p.Val))) + 8*len(p.Val)
	}
	return n
}

// uvarintLen returns the varint encoding length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodePayload decodes one payload from d into p, reusing p's backing
// arrays. Validation is complete: counts are bounded by MaxElems and the
// bytes present, top-k indices must be strictly ascending and < n, and the
// int8 chunk length must be positive whenever quanta are present. Float64
// bits pass through untouched (a NaN on the wire is a NaN after decode —
// transport is semantics-free; the codec layer owns the NaN contract).
func DecodePayload(p *compress.Payload, d *Dec) error {
	form := d.Byte()
	p.Idx, p.Val, p.Q, p.Scale = p.Idx[:0], p.Val[:0], p.Q[:0], p.Scale[:0]
	p.ChunkLen = 0
	switch form {
	case formDense:
		n := d.Count(MaxElems, 8)
		p.Form, p.N = compress.KindNone, n
		p.Val = grow64(p.Val, n)
		d.F64s(p.Val)
	case formTopK:
		n := d.Count(MaxElems, 0)
		k := d.Count(n, 1) // every index delta takes ≥ 1 byte
		p.Form, p.N = compress.KindTopK, n
		p.Idx = growI32(p.Idx, k)
		p.Val = grow64(p.Val, k)
		prev := int32(-1)
		for j := 0; j < k && d.Err == nil; j++ {
			delta := d.Uvarint()
			if delta == 0 || delta > uint64(n) {
				d.fail("wire: topk index delta %d out of range", delta)
				break
			}
			idx := int64(prev) + int64(delta)
			if idx >= int64(n) {
				d.fail("wire: topk index %d out of range [0,%d)", idx, n)
				break
			}
			prev = int32(idx)
			p.Idx[j] = prev
		}
		d.F64s(p.Val)
	case formInt8:
		n := d.Count(MaxElems, 1)
		chunk := d.Count(MaxElems, 0)
		if n > 0 && chunk == 0 && d.Err == nil {
			d.fail("wire: int8 chunk length 0 with %d quanta", n)
		}
		p.Form, p.N, p.ChunkLen = compress.KindInt8, n, chunk
		scales := 0
		if chunk > 0 {
			scales = (n + chunk - 1) / chunk
		}
		if d.Err == nil && scales > (d.Len())/8 {
			d.fail("wire: %d int8 scales need %d bytes, have %d", scales, 8*scales, d.Len())
		}
		p.Scale = grow64(p.Scale, scales)
		d.F64s(p.Scale)
		q := d.Take(n)
		p.Q = growI8(p.Q, n)
		for i := range q {
			p.Q[i] = int8(q[i])
		}
	default:
		d.fail("wire: unknown payload form 0x%02x", form)
	}
	if d.Err != nil {
		// Leave no half-decoded state behind.
		p.Idx, p.Val, p.Q, p.Scale = p.Idx[:0], p.Val[:0], p.Q[:0], p.Scale[:0]
		p.N, p.ChunkLen = 0, 0
		p.Form = compress.KindNone
	}
	return d.Err
}

// UnmarshalPayload decodes one payload from the front of b, returning the
// unconsumed remainder.
func UnmarshalPayload(p *compress.Payload, b []byte) ([]byte, error) {
	d := Dec{B: b}
	if err := DecodePayload(p, &d); err != nil {
		return d.B, err
	}
	return d.B, nil
}

// grow64 returns s resized to n, reusing capacity.
func grow64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growI32 returns s resized to n, reusing capacity.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growI8 returns s resized to n, reusing capacity.
func growI8(s []int8, n int) []int8 {
	if cap(s) < n {
		return make([]int8, n)
	}
	return s[:n]
}
