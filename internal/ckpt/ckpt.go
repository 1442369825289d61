// Package ckpt provides the little-endian binary codec shared by every
// checkpoint in the repository: the fl run checkpoint and the
// per-algorithm state (Scaffold control variates, STEM momentum, TACO's
// alpha tracker). A Codec carries its direction, so a piece of state is
// described once — one function walks its fields and runs both on save
// and on restore. Values move as fixed-width little-endian words through
// the codec's own scratch — no reflection, and no allocation per value on
// save (a stream cursor is appended into a reused buffer) — and every
// decode length-checks before allocating, so corrupt or truncated input
// fails with an error instead of a panic or an absurd allocation.
package ckpt

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// MaxElems bounds any single decoded slice length. Checkpoints in this
// repository hold at most a few million parameters; a length beyond this
// is corrupt input, rejected before allocation.
const MaxElems = 1 << 28

// Codec moves values between memory and a checkpoint stream, in the
// direction it was built for. Every method takes the live value's
// address (or the live slice): Save writes what is there, Load overwrites
// it. The first failure sticks — later calls do nothing and leave their
// values untouched — so a walk checks Err once at the end. Bytes reach
// the stream in call order with nothing held back between calls, so
// codecs nested over one stream (Nested) interleave correctly.
type Codec struct {
	w       io.Writer // set by Save
	r       io.Reader // set by Load
	err     error
	section string
	cursor  []byte // Cursor's scratch in either direction
	buf     [1024]byte
}

// Save returns a codec that writes the values it is shown to w.
func Save(w io.Writer) *Codec { return &Codec{w: w} }

// Load returns a codec that overwrites the values it is shown from r.
func Load(r io.Reader) *Codec { return &Codec{r: r} }

// Loading reports whether the codec restores (Load) rather than saves.
func (c *Codec) Loading() bool { return c.r != nil }

// Err returns the first failure, nil when every call so far succeeded.
func (c *Codec) Err() error { return c.err }

// Section names the part of the state the following calls belong to; a
// failure is reported under the section it happened in.
func (c *Codec) Section(name string) { c.section = name }

// Failf records a validation failure found by the walk itself (a value
// out of range); like any other failure it is kept only if it is the
// first.
func (c *Codec) Failf(format string, args ...any) {
	if c.err != nil {
		return
	}
	c.err = fmt.Errorf(format, args...)
	if c.section != "" {
		c.err = fmt.Errorf("%s: %w", c.section, c.err)
	}
}

// move transfers b in the codec's direction.
func (c *Codec) move(b []byte) {
	if c.err != nil {
		return
	}
	var err error
	if c.r != nil {
		_, err = io.ReadFull(c.r, b)
	} else {
		_, err = c.w.Write(b)
	}
	if err != nil {
		c.Failf("%w", err)
	}
}

// U64 moves one little-endian uint64.
func (c *Codec) U64(v *uint64) {
	b := c.buf[:8]
	binary.LittleEndian.PutUint64(b, *v)
	c.move(b)
	if c.r != nil && c.err == nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// U32s moves a fixed-length uint32 slice, four little-endian bytes each.
func (c *Codec) U32s(v []uint32) {
	b := c.buf[:4]
	for i := range v {
		binary.LittleEndian.PutUint32(b, v[i])
		c.move(b)
		if c.r != nil && c.err == nil {
			v[i] = binary.LittleEndian.Uint32(b)
		}
	}
}

// Int moves an int as a uint64 (two's complement).
func (c *Codec) Int(v *int) {
	u := uint64(*v)
	c.U64(&u)
	*v = int(u)
}

// F64 moves one float64 as its IEEE-754 bits.
func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	*v = math.Float64frombits(u)
}

// Bool moves a bool as one byte; a byte other than 0 or 1 fails the load.
func (c *Codec) Bool(v *bool) {
	b := c.buf[:1]
	b[0] = 0
	if *v {
		b[0] = 1
	}
	c.move(b)
	if c.r == nil || c.err != nil {
		return
	}
	if b[0] > 1 {
		c.Failf("ckpt: invalid bool byte %#x", b[0])
		return
	}
	*v = b[0] == 1
}

// Expect guards a structural fact both sides must agree on — whether an
// optional part of the state exists. Save records present; Load fails
// when the checkpoint disagrees with the live value. It returns present,
// so the walk can branch on it in either direction.
func (c *Codec) Expect(present bool, what string) bool {
	got := present
	c.Bool(&got)
	if got != present {
		c.Failf("%s presence mismatch", what)
	}
	return present
}

// ExpectLen is Expect for a count the live state fixes (a per-client
// table, a stage list): Save records n, Load fails on any other value.
func (c *Codec) ExpectLen(n int, what string) {
	got := n
	c.Int(&got)
	if got != n {
		c.Failf("checkpoint has %d %s, this run %d", got, what, n)
	}
}

// length moves a slice length and returns the recorded one, checked
// against MaxElems (0 after a failure).
func (c *Codec) length(n int, what string) int {
	u := uint64(n)
	c.U64(&u)
	if u > MaxElems {
		c.Failf("ckpt: %s length %d exceeds limit %d (corrupt checkpoint)", what, u, MaxElems)
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// floats moves a length-prefixed slice of fixed length in place, each
// value as its own IEEE-754 bits in a word of its own width, 8 bytes for
// float64 and 4 for float32: no conversion touches a value, so every bit
// round-trips, NaN payloads included (widening would quiet a signaling
// NaN).
func floats[F float32 | float64](c *Codec, v []F) {
	if n := c.length(len(v), "float slice"); c.err == nil && n != len(v) {
		c.Failf("ckpt: recorded length %d, destination needs %d", n, len(v))
	}
	w := int(unsafe.Sizeof(F(0)))
	for len(v) > 0 && c.err == nil {
		k := min(len(v), len(c.buf)/w)
		b := c.buf[:w*k]
		if c.w != nil {
			for i, x := range v[:k] {
				if w == 4 {
					binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(x)))
				} else {
					binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(float64(x)))
				}
			}
		}
		c.move(b)
		if c.r != nil && c.err == nil {
			for i := range v[:k] {
				if w == 4 {
					v[i] = F(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
				} else {
					v[i] = F(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
				}
			}
		}
		v = v[k:]
	}
}

// F64s moves a float64 slice in place; Load requires the recorded length
// to equal len(v).
func (c *Codec) F64s(v []float64) { floats(c, v) }

// row moves one lazily allocated slice: a presence byte, then the values.
// Load sets an absent row to nil and allocates a present one that is nil
// in the live state at the required width.
func row[F float32 | float64](c *Codec, v *[]F, width int) {
	present := *v != nil
	c.Bool(&present)
	switch {
	case !present:
		*v = nil
	case *v == nil:
		*v = make([]F, width)
	}
	if present {
		floats(c, *v)
	}
}

// rows moves a table of rows whose count the live table fixes.
func rows[F float32 | float64](c *Codec, t [][]F, width int) {
	c.ExpectLen(len(t), "rows")
	for i := range t {
		row(c, &t[i], width)
	}
}

// Row moves one nil-preserving slice whose length, when present, is
// width.
func (c *Codec) Row(v *[]float64, width int) { row(c, v, width) }

// Rows moves a per-client table of nil-preserving rows (the lazy-
// allocation idiom of Scaffold's control variates and the EF residuals):
// the row count is fixed by the live table, every present row is width
// long.
func (c *Codec) Rows(t [][]float64, width int) { rows(c, t, width) }

// Rows32 is Rows for float32 rows, each value stored as its 4-byte fp32
// bits.
func (c *Codec) Rows32(t [][]float32, width int) { rows(c, t, width) }

// Ints moves a length-prefixed int slice of any length; Load replaces *v,
// reusing its capacity and growing with the data actually read, so a
// forged length on truncated input fails with a small allocation.
func (c *Codec) Ints(v *[]int) {
	n := c.length(len(*v), "int slice")
	if c.w != nil {
		for i := range *v {
			c.Int(&(*v)[i])
		}
		return
	}
	out := (*v)[:0]
	for i := 0; i < n && c.err == nil; i++ {
		var x int
		c.Int(&x)
		out = append(out, x)
	}
	if c.err == nil {
		*v = out
	}
}

// Bytes moves a length-prefixed byte slice of any length; Load replaces
// *v the way Ints does.
func (c *Codec) Bytes(v *[]byte) {
	n := c.length(len(*v), "byte slice")
	if c.w != nil {
		c.move(*v)
		return
	}
	out := (*v)[:0]
	for n > 0 && c.err == nil {
		k := min(n, len(c.buf))
		c.move(c.buf[:k])
		out = append(out, c.buf[:k]...)
		n -= k
	}
	if c.err == nil {
		*v = out
	}
}

// Stream is a cursor Codec.Cursor can capture and restore — in this
// repository, rng streams. AppendBinary appends the cursor to b (the
// method of Go 1.24's encoding.BinaryAppender, spelled out for older
// toolchains); UnmarshalBinary must not keep its argument.
type Stream interface {
	AppendBinary(b []byte) ([]byte, error)
	encoding.BinaryUnmarshaler
}

// Cursor moves a stream cursor. On Load, apply false consumes the
// recorded cursor without applying it — the divergence-rollback restore,
// which keeps the live stream positions so the replayed rounds draw fresh
// batches. Save ignores apply and appends the cursor into the codec's
// reused buffer.
func (c *Codec) Cursor(s Stream, apply bool) {
	if c.w != nil {
		var err error
		if c.cursor, err = s.AppendBinary(c.cursor[:0]); err != nil {
			c.Failf("%w", err)
		}
		c.Bytes(&c.cursor)
		return
	}
	c.Bytes(&c.cursor)
	if apply && c.err == nil {
		if err := s.UnmarshalBinary(c.cursor); err != nil {
			c.Failf("%w", err)
		}
	}
}

// Nested hands the stream to a state owner that speaks the io interfaces
// (fl.StatefulAlgorithm): save on a saving codec, load on a loading one.
func (c *Codec) Nested(save func(io.Writer) error, load func(io.Reader) error) {
	if c.err != nil {
		return
	}
	var err error
	if c.r != nil {
		err = load(c.r)
	} else {
		err = save(c.w)
	}
	if err != nil {
		c.Failf("%w", err)
	}
}
