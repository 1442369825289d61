package rng

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// pcg is math/rand/v2's PCG generator, owned here so the hot samplers can
// draw without the Rand→Source interface call and keep the state in
// registers across a bulk fill: the same 128-bit LCG, the same DXSM output
// permutation, and the same 20-byte "pcg:"+hi+lo binary form, so a cursor
// saved by either type restores into the other (TestPCGMatchesStdlib).
type pcg struct{ hi, lo uint64 }

// errUnmarshalPCG matches math/rand/v2's message for a malformed cursor.
var errUnmarshalPCG = errors.New("invalid PCG encoding")

// step advances the LCG state: (hi, lo) = (hi, lo)·mul + inc mod 2¹²⁸.
func step(hi, lo uint64) (uint64, uint64) {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	h, l := bits.Mul64(lo, mulLo)
	h += hi*mulLo + lo*mulHi
	l, c := bits.Add64(l, incLo, 0)
	h, _ = bits.Add64(h, incHi, c)
	return h, l
}

// dxsm is the "double xorshift multiply" output of an advanced state.
func dxsm(hi, lo uint64) uint64 {
	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// unit maps a draw to [0, 1) exactly as Rand.Float64 does: the low 53
// bits over 2⁵³.
func unit(x uint64) float64 { return float64(x<<11>>11) / (1 << 53) }

// Uint64 implements rand.Source.
func (p *pcg) Uint64() uint64 {
	p.hi, p.lo = step(p.hi, p.lo)
	return dxsm(p.hi, p.lo)
}

// float64s fills dst with consecutive Float64 draws.
func (p *pcg) float64s(dst []float64) {
	hi, lo := p.hi, p.lo
	for i := range dst {
		hi, lo = step(hi, lo)
		dst[i] = unit(dxsm(hi, lo))
	}
	p.hi, p.lo = hi, lo
}

// AppendBinary appends the cursor in math/rand/v2's PCG encoding.
func (p *pcg) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, "pcg:"...)
	b = binary.BigEndian.AppendUint64(b, p.hi)
	return binary.BigEndian.AppendUint64(b, p.lo), nil
}

// UnmarshalBinary restores a cursor in math/rand/v2's PCG encoding.
func (p *pcg) UnmarshalBinary(data []byte) error {
	if len(data) != 20 || string(data[:4]) != "pcg:" {
		return errUnmarshalPCG
	}
	p.hi = binary.BigEndian.Uint64(data[4:])
	p.lo = binary.BigEndian.Uint64(data[12:])
	return nil
}
