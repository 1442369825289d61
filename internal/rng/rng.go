// Package rng provides the deterministic random-number machinery used by
// every stochastic component in the repository: dataset synthesis, non-IID
// partitioning (Dirichlet label skew), mini-batch sampling, and parameter
// initialization.
//
// Determinism contract: every experiment takes one uint64 seed. Components
// that run concurrently (for example the clients inside one FL round) must
// each own an RNG derived via Derive with a distinct stream label, so that
// results are bit-identical regardless of goroutine scheduling or the
// parallelism level.
package rng

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// RNG is a deterministic random source with the distribution samplers this
// repository needs beyond math/rand/v2. It owns its PCG (pcg.go) so the
// stream cursor can be checkpointed (MarshalBinary, AppendBinary) and
// restored (UnmarshalBinary) for bit-identical resume, and so the hot
// draws (Uint64, Float64, Float64s, IntN, SampleInto, FloydInto) skip the
// Rand→Source interface call. src is the stdlib's view of the same PCG,
// for its samplers (Normal, Perm, Shuffle, Gamma). It is held by value,
// so an RNG is one object: DeriveN lays out a whole fleet's streams in
// one slab, and DeriveInto seeds one in place.
//
// An RNG must not be copied by value: its src points at its own PCG, so a
// copy would draw the stdlib samplers from the original's cursor. Share
// it by pointer. The zero RNG is unseeded; New, Derive, DeriveInto and
// DeriveN return or seed usable ones.
type RNG struct {
	pcg pcg
	src rand.Rand
}

// New returns an RNG seeded with the given seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed sets the cursor New(seed) starts from and points src at it. The
// second PCG word is a fixed golden-ratio constant so that nearby seeds
// still produce decorrelated streams.
func (r *RNG) seed(seed uint64) {
	r.pcg = pcg{hi: seed, lo: seed ^ 0x9e3779b97f4a7c15}
	r.src = *rand.New(&r.pcg)
}

// MarshalBinary captures the stream cursor. Every sampler in this package
// draws statelessly from the underlying source, so the cursor alone is the
// full RNG state.
func (r *RNG) MarshalBinary() ([]byte, error) { return r.pcg.AppendBinary(make([]byte, 0, 20)) }

// AppendBinary appends the MarshalBinary cursor to b, so a caller with a
// reused buffer saves it without allocating.
func (r *RNG) AppendBinary(b []byte) ([]byte, error) { return r.pcg.AppendBinary(b) }

// UnmarshalBinary restores a cursor captured by MarshalBinary; subsequent
// draws continue the original stream bit-identically.
func (r *RNG) UnmarshalBinary(data []byte) error { return r.pcg.UnmarshalBinary(data) }

// Derive returns a new independent RNG whose seed is the parent's next
// Uint64 mixed with an FNV-1a hash of label and index; the parent's
// original seed is not consulted. The child stream therefore depends on
// the parent's cursor, so to keep parallel client execution deterministic,
// call Derive for all children before any of them starts consuming
// randomness.
func (r *RNG) Derive(label string, index int) *RNG {
	c := &RNG{}
	r.DeriveInto(c, label, index)
	return c
}

// DeriveInto reseeds dst as the stream Derive(label, index) would
// return, drawing the same one value from r, so a caller that owns the
// storage — a slab indexed by client id — derives without allocating.
func (r *RNG) DeriveInto(dst *RNG, label string, index int) {
	dst.seed(r.pcg.Uint64() ^ mixIndex(hashLabel(label), index))
}

// DeriveN returns n streams equal to Derive(label, 0), …,
// Derive(label, n-1) called in that order, laid out in one slab.
func (r *RNG) DeriveN(label string, n int) []RNG {
	out := make([]RNG, n)
	h := hashLabel(label)
	for i := range out {
		out[i].seed(r.pcg.Uint64() ^ mixIndex(h, i))
	}
	return out
}

// FNV-1a (64-bit) parameters, as in hash/fnv.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashLabel is the FNV-1a hash of label's bytes.
func hashLabel(label string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime
	}
	return h
}

// mixIndex continues the FNV-1a hash h over index's eight little-endian
// bytes: the derivation mix of a (label, index) pair.
func mixIndex(h uint64, index int) uint64 {
	v := uint64(index)
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * i) & 0xff
		h *= fnvPrime
	}
	return h
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.pcg.Uint64() }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.pcg.Uint64()) }

// Float64s fills dst with consecutive Float64 draws — the same values and
// the same cursor as len(dst) calls to Float64, at the cost of the
// arithmetic alone.
func (r *RNG) Float64s(dst []float64) { r.pcg.float64s(dst) }

// IntN returns a uniform value in [0, n), drawing exactly what
// math/rand/v2's Rand.IntN would. It panics if n <= 0.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	return int(r.uint64n(uint64(n)))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.src.NormFloat64()
}

// Gamma returns a sample from the Gamma distribution with shape alpha > 0
// and scale 1, using the Marsaglia–Tsang squeeze method (2000). For
// alpha < 1 it applies the standard boost Gamma(a) = Gamma(a+1)·U^(1/a).
func (r *RNG) Gamma(alpha float64) float64 {
	if alpha <= 0 {
		panic("rng: Gamma requires alpha > 0")
	}
	if alpha < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.src.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet returns a sample from the symmetric Dirichlet distribution with
// concentration parameter phi over k categories. Smaller phi values produce
// more skewed (sparser) probability vectors — the standard non-IID
// label-skew generator in FL research.
func (r *RNG) Dirichlet(phi float64, k int) []float64 {
	if k <= 0 {
		panic("rng: Dirichlet requires k > 0")
	}
	out := make([]float64, k)
	r.DirichletInto(phi, out)
	return out
}

// DirichletInto fills dst with a symmetric Dirichlet(phi) sample over
// len(dst) categories, consuming exactly the stream draws Dirichlet
// would — callers batching many draws (the Dirichlet partitioner) reuse
// one buffer without perturbing the sequence.
func (r *RNG) DirichletInto(phi float64, dst []float64) {
	if len(dst) == 0 {
		panic("rng: Dirichlet requires k > 0")
	}
	var sum float64
	for i := range dst {
		g := r.Gamma(phi)
		dst[i] = g
		sum += g
	}
	if sum == 0 {
		// Numerically possible for tiny phi: fall back to a one-hot vector.
		for i := range dst {
			dst[i] = 0
		}
		dst[r.IntN(len(dst))] = 1
		return
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Categorical returns an index sampled according to the (not necessarily
// normalized) non-negative weights. It panics when all weights are zero.
func (r *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: Categorical requires non-negative weights")
		}
		total += w
	}
	if total == 0 {
		panic("rng: Categorical requires at least one positive weight")
	}
	u := r.Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if u < cum {
			return i
		}
	}
	return len(weights) - 1 // floating-point edge: return the last category
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n): the first k entries of Perm(n), consuming the same draws. It
// panics when k > n.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: SampleWithoutReplacement requires k <= n")
	}
	out := make([]int, k)
	r.SampleInto(out, make([]int32, n), n)
	return out
}

// SampleInto writes Perm(n)[:len(dst)] into dst and leaves the stream at
// the cursor Perm(n) would: it runs Shuffle's Fisher–Yates loop over the
// identity in scratch[:n], drawing each swap index with uint64n's exact
// reduction straight from the PCG. The caller owns both buffers, so a
// reused pair samples without allocating. It panics when len(dst) > n,
// when len(scratch) < n, or when n exceeds MaxInt32.
func (r *RNG) SampleInto(dst []int, scratch []int32, n int) {
	if len(dst) > n {
		panic("rng: SampleInto requires len(dst) <= n")
	}
	if n > math.MaxInt32 {
		panic("rng: SampleInto requires n <= MaxInt32")
	}
	p := scratch[:n]
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.uint64n(uint64(i + 1))
		p[i], p[j] = p[j], p[i]
	}
	for i := range dst {
		dst[i] = int(p[i])
	}
}

// FloydInto fills dst with k = len(dst) distinct values of [0, n), every
// k-subset equally likely, by Floyd's algorithm (Bentley & Floyd, CACM
// 1987): the i-th value is v = IntN(j+1) with j = n−k+i, or j when v is
// taken already. It makes exactly k draws. mark is a caller-owned all-zero
// bitset of at least n bits that tells taken values; it is zero again on
// return. It panics when len(dst) > n or mark is too short.
func (r *RNG) FloydInto(dst []int, mark []uint64, n int) {
	k := len(dst)
	if k > n {
		panic("rng: FloydInto requires len(dst) <= n")
	}
	if len(mark) < (n+63)/64 {
		panic("rng: FloydInto requires a mark bitset of n bits")
	}
	for i := range dst {
		j := n - k + i
		v := int(r.uint64n(uint64(j + 1)))
		if mark[v>>6]&(1<<(v&63)) != 0 {
			v = j
		}
		mark[v>>6] |= 1 << (v & 63)
		dst[i] = v
	}
	for _, v := range dst {
		mark[v>>6] = 0
	}
}

// uint64n is math/rand/v2's uniform reduction to [0, n) — a mask for a
// power of two, else the high word of a 128-bit product with Lemire's
// rejection — drawn from the PCG directly, so each draw skips the
// Rand→Source interface call. It must stay draw-for-draw equal to
// Rand.IntN (pinned by TestIntNMatchesStdlib and
// TestSampleIntoMatchesPerm).
func (r *RNG) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.pcg.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.pcg.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.pcg.Uint64(), n)
		}
	}
	return hi
}
