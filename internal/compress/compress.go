// Package compress implements the uplink update codecs of the
// compressed-communication substrate (DESIGN.md §7): lossless dense
// transport (None), magnitude top-k sparsification (TopK), and QSGD-style
// int8 stochastic quantization (Int8), plus the error-feedback step
// (EncodeEF) that keeps lossy codecs convergent by carrying the
// compression error into the next round's upload.
//
// Codecs are stateless and safe for concurrent use; all mutable state —
// the encoded Payload, the per-client error-feedback residual, the
// quantization RNG stream, and the selection scratch — is owned by the
// caller, which lets the FL engine keep it in the slot pool and run
// steady-state rounds without allocating. Encoding is deterministic: TopK
// breaks magnitude ties by the smallest index, and Int8 draws its
// stochastic roundings from the caller's (per-client) stream, so runs are
// bit-identical at any parallelism level.
package compress

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/vecmath"
)

// Kind names a codec family. The zero value is dense (uncompressed)
// transport, so a zero Spec reproduces uncompressed runs bit-identically.
type Kind string

const (
	// KindNone is lossless dense transport (the identity codec).
	KindNone Kind = ""
	// KindTopK keeps the k largest-magnitude coordinates as (index,
	// value) pairs.
	KindTopK Kind = "topk"
	// KindInt8 quantizes every coordinate to a signed byte with one
	// float64 scale per chunk.
	KindInt8 Kind = "int8"
)

// String implements fmt.Stringer, naming the zero value explicitly.
func (k Kind) String() string {
	if k == KindNone {
		return "none"
	}
	return string(k)
}

// KindNames lists the accepted -compress flag values.
func KindNames() []string { return []string{"none", "topk", "int8"} }

// Defaults applied by Spec for zero fields.
const (
	// DefaultTopKFrac is the kept-coordinate fraction when TopKFrac is 0.
	DefaultTopKFrac = 0.01
	// DefaultChunk is the int8 per-scale chunk length when Chunk is 0.
	DefaultChunk = 1024
)

// Spec declares a codec in a run configuration. The zero value selects
// dense transport.
type Spec struct {
	// Kind selects the codec family.
	Kind Kind
	// TopKFrac is the kept-coordinate fraction for KindTopK, in (0, 1];
	// 0 selects DefaultTopKFrac. Must be 0 for other kinds.
	TopKFrac float64
	// Chunk is the per-scale chunk length for KindInt8; 0 selects
	// DefaultChunk. Must be 0 for other kinds.
	Chunk int
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindNone, KindTopK, KindInt8:
	default:
		return fmt.Errorf("compress: unknown codec kind %q (valid: %v)", s.Kind, KindNames())
	}
	if s.TopKFrac != 0 {
		if s.Kind != KindTopK {
			return fmt.Errorf("compress: TopKFrac %v is only meaningful for kind topk", s.TopKFrac)
		}
		if math.IsNaN(s.TopKFrac) || s.TopKFrac < 0 || s.TopKFrac > 1 {
			return fmt.Errorf("compress: TopKFrac %v must be in (0,1]", s.TopKFrac)
		}
	}
	if s.Chunk != 0 {
		if s.Kind != KindInt8 {
			return fmt.Errorf("compress: Chunk %d is only meaningful for kind int8", s.Chunk)
		}
		if s.Chunk < 0 {
			return fmt.Errorf("compress: Chunk %d must be positive", s.Chunk)
		}
	}
	return nil
}

// Codec constructs the codec the spec declares. The spec must validate.
func (s Spec) Codec() (Codec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindTopK:
		frac := s.TopKFrac
		if frac == 0 {
			frac = DefaultTopKFrac
		}
		return &TopK{Frac: frac}, nil
	case KindInt8:
		chunk := s.Chunk
		if chunk == 0 {
			chunk = DefaultChunk
		}
		return &Int8{Chunk: chunk}, nil
	default:
		return None{}, nil
	}
}

// String renders the spec in ParseSpec syntax.
func (s Spec) String() string {
	switch s.Kind {
	case KindTopK:
		frac := s.TopKFrac
		if frac == 0 {
			frac = DefaultTopKFrac
		}
		return fmt.Sprintf("topk:%g", frac)
	case KindInt8:
		if s.Chunk != 0 {
			return fmt.Sprintf("int8:%d", s.Chunk)
		}
		return "int8"
	default:
		return "none"
	}
}

// grammar is the -compress kind table: the arguments each codec takes.
var grammar = spec.Grammar{Pkg: "compress", Fields: map[string][]string{
	"topk": {"fraction"}, "int8": {"chunk"},
}}

// ParseSpec parses the flag syntax "kind[:param]" (DESIGN.md §6's spec
// grammar): "none" (or blank), "topk[:frac]", "int8[:chunk]".
func ParseSpec(s string) (Spec, error) {
	if spec.None(s) {
		return Spec{}, nil
	}
	e := grammar.Entry(s)
	out := Spec{Kind: Kind(e.Kind)}
	if out.Kind == KindInt8 {
		return spec.Fill(e, &out, &out.Chunk)
	}
	return spec.Fill(e, &out, &out.TopKFrac)
}

// Payload is one encoded upload. Which fields are populated depends on
// Form; the backing arrays are owned by the payload and reused across
// encodes (the FL engine keeps one payload per delta-ring buffer), so a
// decoded view is only valid until the next Encode into the same payload.
type Payload struct {
	// Form is the codec family that produced the payload.
	Form Kind
	// N is the original (dense) vector length.
	N int
	// Idx and Val are the KindTopK coordinate list, in ascending index
	// order. Idx is also read by KindNone decodes (empty).
	Idx []int32
	Val []float64
	// Q and Scale are the KindInt8 quantized bytes and per-chunk scales;
	// ChunkLen is the quantization chunk length.
	Q        []int8
	Scale    []float64
	ChunkLen int
}

// Bytes returns the payload's size on the wire: 4-byte indices + 8-byte
// values for sparse form, 1-byte quanta + 8-byte chunk scales for int8,
// 8 bytes per coordinate for dense transport.
func (p *Payload) Bytes() int {
	switch p.Form {
	case KindTopK:
		return 4*len(p.Idx) + 8*len(p.Val)
	case KindInt8:
		return len(p.Q) + 8*len(p.Scale)
	default:
		return 8 * p.N
	}
}

// Sparse reports whether the payload is in sparse (index, value) form,
// which aggregation kernels can consume directly (vecmath.ScatterAXPY /
// GatherDot) in O(k) instead of O(d).
func (p *Payload) Sparse() bool { return p.Form == KindTopK }

// Codec encodes dense float64 update vectors into compact payloads.
// Implementations are stateless; Encode and Decode may run concurrently
// on distinct payloads.
type Codec interface {
	// Name identifies the codec in reports.
	Name() string
	// Grow preallocates p's backing arrays to the worst-case capacity
	// for d-length vectors, so subsequent encodes allocate nothing.
	Grow(p *Payload, d int)
	// Encode writes the encoded form of x into p, reusing p's backing
	// arrays. r drives any stochastic rounding (may be nil for
	// deterministic codecs); scratch is workspace of len(x) capacity,
	// distinct from x — TopK's selection buffer, Int8's uniforms (Int8
	// allocates its own when it is nil; None ignores it). Encode never
	// panics on non-finite inputs.
	Encode(p *Payload, x []float64, r *rng.RNG, scratch []float64)
	// Decode overwrites dst (length p.N) with the decoded vector. The
	// decode of a finite input's encode is always finite.
	Decode(dst []float64, p *Payload)
}

// None is the identity codec: dense transport, zero loss. Its payload
// stores the full vector, so Bytes reports the uncompressed cost.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// Grow implements Codec.
func (None) Grow(p *Payload, d int) {
	if cap(p.Val) < d {
		p.Val = make([]float64, 0, d)
	}
}

// Encode implements Codec by copying x.
func (n None) Encode(p *Payload, x []float64, _ *rng.RNG, _ []float64) {
	n.Grow(p, len(x))
	p.Form, p.N = KindNone, len(x)
	p.Idx = p.Idx[:0]
	p.Val = p.Val[:len(x)]
	copy(p.Val, x)
}

// Decode implements Codec.
func (None) Decode(dst []float64, p *Payload) { copy(dst, p.Val) }

// EncodeEF performs one error-feedback compression step over the update
// x: the carried residual e (the mass previous encodes dropped) is folded
// in, x+e is encoded into p, e is replaced with the fresh residual
// (x+e) − decode(p), and x itself is overwritten with the decoded,
// server-visible update — so cumulative decoded mass tracks cumulative
// true mass to within one residual (‖Σ dec − Σ Δ‖ = ‖e_T‖, which stays
// bounded for contractive codecs instead of growing with T).
//
// A non-finite update coordinate (a diverging or attacked client) would
// poison the residual forever — e.g. int8 transmits a non-finite chunk
// as zeros, so e would absorb the Inf and re-inject it every round,
// silencing the client's affected coordinates for the rest of the run.
// Residual coordinates that come out non-finite are therefore reset to
// zero: the unrecoverable mass is dropped and the client's feedback
// recovers as soon as its uploads are finite again.
//
// e == nil disables the feedback (plain lossy compression). scratch must
// be a distinct buffer with at least len(x) capacity; it is the codec's
// workspace, and what it holds on return is unspecified. Each codec takes
// its own step, bit for bit the fold/encode/decode/subtract/reset/copy
// loops: *TopK its two-pass emit, *Int8 two vector passes per chunk
// (int8EF), and None, which is lossless, leaves x as x+e and e all zero
// (x+e − x+e is +0, or NaN where x+e is not finite, which resets to 0).
func EncodeEF(c Codec, p *Payload, x, e []float64, r *rng.RNG, scratch []float64) {
	encodeEF(c, p, x, e, r, scratch)
}

// EncodeEF32 is EncodeEF with a float32 residual, for runs whose client
// compute state is float32 (fl's DType "f32"): the residual carries
// client-local dropped mass — the same precision class as the client's
// training state — while the fold/encode/decode arithmetic stays float64
// on the already-widened update x, so the wire payload and the
// server-visible decoded update remain exactly what the codec computes.
// e32 must be non-nil and len(x) long; non-finite residual coordinates
// reset to zero exactly as in EncodeEF, and the narrowing to fp32 happens
// after that guard, so a finite residual beyond float32's range narrows
// to ±Inf as it always has.
func EncodeEF32(c Codec, p *Payload, x []float64, e32 []float32, r *rng.RNG, scratch []float64) {
	encodeEF(c, p, x, e32, r, scratch)
}

// encodeEF is EncodeEF and EncodeEF32 over either residual precision.
func encodeEF[E float64 | float32](c Codec, p *Payload, x []float64, e []E, r *rng.RNG, scratch []float64) {
	switch c := c.(type) {
	case *TopK:
		if e != nil {
			emit(c, p, x, e, scratch)
			return
		}
	case *Int8:
		if e != nil {
			int8EF(c, p, x, e, r, scratch)
			return
		}
	default: // None: lossless, so the decode is x+e itself
		if e != nil {
			fold(x, e, scratch)
			clear(e)
		}
	}
	c.Encode(p, x, r, scratch)
	c.Decode(x, p)
}

// fold adds the residual e into x, widening a float32 one through scratch.
func fold[E float64 | float32](x []float64, e []E, scratch []float64) {
	switch e := any(e).(type) {
	case []float64:
		vecmath.Add(x, x, e)
	case []float32:
		w := scratch[:len(x)]
		vecmath.Widen(w, e)
		vecmath.Add(x, x, w)
	}
}
