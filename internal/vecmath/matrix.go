package vecmath

import (
	"fmt"
	"math"
)

// Row-major matrix kernels used by the neural-network substrate. A matrix
// with r rows and c columns is stored as a []F of length r*c with element
// (i, j) at index i*c+j. Keeping these loops here (rather than inside
// internal/nn) lets the gradient-check tests exercise them in isolation
// and keeps the layer code focused on calculus.
//
// The three GEMM drivers (Gemm, GemmATB, GemmABT) are written once over
// the per-precision microkernel table (kernels.go): where the table has an
// assembly tile the driver walks C in 4×wide and 1×wide blocks (plus the
// float32 half blocks) and finishes the column remainder with scalar dots;
// where it has none the pure-Go register tiles below run. Those share a
// common design: a 2×4 register tile of C accumulates in registers across
// the whole reduction and is written back once, so the inner loop performs
// 16 flops per 6 loads with no stores. Gemm additionally blocks the reduction
// dimension (gemmKC) so the 4-column stripe of B walked by a tile stays
// cache-resident for long reductions, and GemmATB switches to a rank-1
// row-panel form when the reduction is long enough to amortize streaming
// C. Each kernel takes an accumulate flag so callers can fold C += A·B
// directly into a gradient vector instead of computing into scratch and
// AXPY-ing. The kernels are dense: unlike the pre-GEMM substrate they
// never test elements against zero, so throughput is independent of the
// data (and much higher on the dense activations that dominate training).

// Kernel parameters; see DESIGN.md §2 for the blocking scheme.
const (
	// gemmMR × gemmNR names the register tile of the pure-Go kernels:
	// 2×4 = 8 accumulators plus 6 in-flight operands, which fits the
	// 16-register floating-point file of the amd64 backend without
	// spills. The tile shape is baked into the unrolled kernel bodies
	// (s00..s13, brow[0..3]) — these constants document it and pin the
	// loop strides; changing them alone does NOT retile the kernels.
	gemmMR = 2
	gemmNR = 4
	// gemmKC bounds the reduction-dimension block in Gemm so the
	// 4-column stripe of B walked by one register tile (gemmKC cache
	// lines) stays L1-resident even for long inner dimensions. This one
	// is a genuine tuning knob.
	gemmKC = 256
	// gemmATBPanelMin is the reduction length above which the pure-Go
	// GemmATB switches from register-dot tiles to rank-1 row panels:
	// with that many updates per C row the panel stays cache-hot while
	// each B row loaded feeds four C rows. Also a genuine tuning knob.
	gemmATBPanelMin = 64
)

func checkDims(op string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("vecmath: %s: backing slice has %d elements, want %d", op, got, want))
	}
}

// Gemm computes C = A·B (or C += A·B when accumulate is true) where A is
// m×k, B is k×n, and C is m×n. C must not alias A or B.
func Gemm[F Float](c, a, b []F, m, k, n int, accumulate bool) {
	checkDims("Gemm A", len(a), m*k)
	checkDims("Gemm B", len(b), k*n)
	checkDims("Gemm C", len(c), m*n)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			Zero(c)
		}
		return
	}
	kn := kernelsFor[F]()
	if nWide, nTile := kn.tileSpans(kn.gemm4Half != nil, n); kn.gemm4 != nil && nTile > 0 {
		gemmAVX(kn, c, a, b, m, k, n, nWide, nTile, accumulate)
		return
	}
	gemmGeneric(c, a, b, m, k, n, accumulate)
}

// tileSpans splits n columns into the span covered by wide tiles and the
// span covered by any assembly tile (one half block more when the table
// has it and at least wide/2 columns remain). nTile == 0 means n is
// narrower than every tile, and the pure-Go tiles run instead.
func (k *kernels[F]) tileSpans(hasHalf bool, n int) (nWide, nTile int) {
	nWide = n &^ (k.wide - 1)
	nTile = nWide
	if hasHalf && n-nWide >= k.wide/2 {
		nTile += k.wide / 2
	}
	return
}

// gemmAVX tiles C into 4×wide (and 1×wide) blocks handled by the FMA
// microkernels over columns [0, nWide), with one half block per row panel
// over [nWide, nTile) where the table has it; the remaining columns fall
// back to scalar dots. The kernels accumulate unconditionally, so C is
// cleared first unless the caller asked for accumulation.
func gemmAVX[F Float](kn *kernels[F], c, a, b []F, m, k, n, nWide, nTile int, accumulate bool) {
	if !accumulate {
		Zero(c)
	}
	// The table's func values are read once, not per tile.
	w, gemm4, gemm4Half, gemm1, gemm1Half := kn.wide, kn.gemm4, kn.gemm4Half, kn.gemm1, kn.gemm1Half
	mMain := m &^ 3
	for i := 0; i < mMain; i += 4 {
		for j := 0; j < nWide; j += w {
			gemm4(&a[i*k], &a[(i+1)*k], &a[(i+2)*k], &a[(i+3)*k], &b[j], n, &c[i*n+j], n, k)
		}
		if nTile > nWide {
			gemm4Half(&a[i*k], &a[(i+1)*k], &a[(i+2)*k], &a[(i+3)*k], &b[nWide], n, &c[i*n+nWide], n, k)
		}
	}
	for i := mMain; i < m; i++ {
		for j := 0; j < nWide; j += w {
			gemm1(&a[i*k], &b[j], n, &c[i*n+j], k)
		}
		if nTile > nWide {
			gemm1Half(&a[i*k], &b[nWide], n, &c[i*n+nWide], k)
		}
	}
	if nTile == n {
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := nTile; j < n; j++ {
			var s F
			idx := j
			for _, ap := range arow {
				s += ap * b[idx]
				idx += n
			}
			crow[j] += s
		}
	}
}

func gemmGeneric[F Float](c, a, b []F, m, k, n int, accumulate bool) {
	for p0 := 0; p0 < k; p0 += gemmKC {
		pEnd := min(p0+gemmKC, k)
		add := accumulate || p0 > 0
		i := 0
		if n < gemmNR {
			i = gemmNarrow(c, a, b, m, k, n, p0, pEnd, add)
		}
		for ; i+gemmMR <= m; i += gemmMR {
			a0 := a[i*k+p0 : i*k+pEnd]
			a1 := a[(i+1)*k+p0 : (i+1)*k+pEnd]
			a1 = a1[:len(a0)]
			c0 := c[i*n : (i+1)*n]
			c1 := c[(i+1)*n : (i+2)*n]
			j := 0
			for ; j+gemmNR <= n; j += gemmNR {
				var s00, s01, s02, s03 F
				var s10, s11, s12, s13 F
				idx := p0*n + j
				for p, a0p := range a0 {
					a1p := a1[p]
					brow := b[idx : idx+4]
					b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
					idx += n
					s00 += a0p * b0
					s01 += a0p * b1
					s02 += a0p * b2
					s03 += a0p * b3
					s10 += a1p * b0
					s11 += a1p * b1
					s12 += a1p * b2
					s13 += a1p * b3
				}
				if add {
					c0[j] += s00
					c0[j+1] += s01
					c0[j+2] += s02
					c0[j+3] += s03
					c1[j] += s10
					c1[j+1] += s11
					c1[j+2] += s12
					c1[j+3] += s13
				} else {
					c0[j] = s00
					c0[j+1] = s01
					c0[j+2] = s02
					c0[j+3] = s03
					c1[j] = s10
					c1[j+1] = s11
					c1[j+2] = s12
					c1[j+3] = s13
				}
			}
			for ; j < n; j++ {
				var s0, s1 F
				idx := p0*n + j
				for p, a0p := range a0 {
					bv := b[idx]
					idx += n
					s0 += a0p * bv
					s1 += a1[p] * bv
				}
				if add {
					c0[j] += s0
					c1[j] += s1
				} else {
					c0[j] = s0
					c1[j] = s1
				}
			}
		}
		if i < m {
			arow := a[i*k+p0 : i*k+pEnd]
			crow := c[i*n : (i+1)*n]
			j := 0
			for ; j+gemmNR <= n; j += gemmNR {
				var s0, s1, s2, s3 F
				idx := p0*n + j
				for _, ap := range arow {
					brow := b[idx : idx+4]
					s0 += ap * brow[0]
					s1 += ap * brow[1]
					s2 += ap * brow[2]
					s3 += ap * brow[3]
					idx += n
				}
				if add {
					crow[j] += s0
					crow[j+1] += s1
					crow[j+2] += s2
					crow[j+3] += s3
				} else {
					crow[j] = s0
					crow[j+1] = s1
					crow[j+2] = s2
					crow[j+3] = s3
				}
			}
			for ; j < n; j++ {
				var s F
				idx := p0*n + j
				for _, ap := range arow {
					s += ap * b[idx]
					idx += n
				}
				if add {
					crow[j] += s
				} else {
					crow[j] = s
				}
			}
		}
	}
}

// gemmNarrow is gemmGeneric's tile for C narrower than the 2×4 tile (the
// MLP's two-logit product): four rows a column at a time, so four add
// chains are in flight where the 2×1 remainder tile has two. Each element
// sums its products in the same order as the other tiles. The products are
// rounded explicitly, so arm64 cannot fuse them into the sums. It returns
// the number of rows it covered, a multiple of four.
func gemmNarrow[F Float](c, a, b []F, m, k, n, p0, pEnd int, add bool) int {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[i*k+p0 : i*k+pEnd]
		a1 := a[(i+1)*k+p0 : (i+1)*k+pEnd]
		a2 := a[(i+2)*k+p0 : (i+2)*k+pEnd]
		a3 := a[(i+3)*k+p0 : (i+3)*k+pEnd]
		a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
		for j := 0; j < n; j++ {
			var s0, s1, s2, s3 F
			idx := p0*n + j
			for p, a0p := range a0 {
				bv := b[idx]
				idx += n
				s0 += F(a0p * bv)
				s1 += F(a1[p] * bv)
				s2 += F(a2[p] * bv)
				s3 += F(a3[p] * bv)
			}
			if add {
				c[i*n+j] += s0
				c[(i+1)*n+j] += s1
				c[(i+2)*n+j] += s2
				c[(i+3)*n+j] += s3
			} else {
				c[i*n+j] = s0
				c[(i+1)*n+j] = s1
				c[(i+2)*n+j] = s2
				c[(i+3)*n+j] = s3
			}
		}
	}
	return i
}

// GemmATB computes C = Aᵀ·B (or C += Aᵀ·B when accumulate is true) where
// A is m×k (so Aᵀ is k×m), B is m×n, and C is k×n. Used for weight
// gradients: dW += Xᵀ·dY. C must not alias A or B.
func GemmATB[F Float](c, a, b []F, m, k, n int, accumulate bool) {
	checkDims("GemmATB A", len(a), m*k)
	checkDims("GemmATB B", len(b), m*n)
	checkDims("GemmATB C", len(c), k*n)
	if k == 0 || n == 0 {
		return
	}
	if m == 0 {
		if !accumulate {
			Zero(c)
		}
		return
	}
	kn := kernelsFor[F]()
	if nWide, nTile := kn.tileSpans(kn.atb4Half != nil, n); kn.atb4 != nil && nTile > 0 {
		gemmATBAVX(kn, c, a, b, m, k, n, nWide, nTile, accumulate)
		return
	}
	if m >= gemmATBPanelMin {
		gemmATBPanels(c, a, b, m, k, n, accumulate)
		return
	}
	p := 0
	for ; p+gemmMR <= k; p += gemmMR {
		c0 := c[p*n : (p+1)*n]
		c1 := c[(p+1)*n : (p+2)*n]
		j := 0
		for ; j+gemmNR <= n; j += gemmNR {
			var s00, s01, s02, s03 F
			var s10, s11, s12, s13 F
			ai := p
			bi := j
			for i := 0; i < m; i++ {
				apair := a[ai : ai+2]
				a0p, a1p := apair[0], apair[1]
				ai += k
				brow := b[bi : bi+4]
				b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
				bi += n
				s00 += a0p * b0
				s01 += a0p * b1
				s02 += a0p * b2
				s03 += a0p * b3
				s10 += a1p * b0
				s11 += a1p * b1
				s12 += a1p * b2
				s13 += a1p * b3
			}
			if accumulate {
				c0[j] += s00
				c0[j+1] += s01
				c0[j+2] += s02
				c0[j+3] += s03
				c1[j] += s10
				c1[j+1] += s11
				c1[j+2] += s12
				c1[j+3] += s13
			} else {
				c0[j] = s00
				c0[j+1] = s01
				c0[j+2] = s02
				c0[j+3] = s03
				c1[j] = s10
				c1[j+1] = s11
				c1[j+2] = s12
				c1[j+3] = s13
			}
		}
		for ; j < n; j++ {
			var s0, s1 F
			ai := p
			bi := j
			for i := 0; i < m; i++ {
				bv := b[bi]
				bi += n
				s0 += a[ai] * bv
				s1 += a[ai+1] * bv
				ai += k
			}
			if accumulate {
				c0[j] += s0
				c1[j] += s1
			} else {
				c0[j] = s0
				c1[j] = s1
			}
		}
	}
	if p < k {
		crow := c[p*n : (p+1)*n]
		for j := 0; j < n; j++ {
			var s F
			ai := p
			bi := j
			for i := 0; i < m; i++ {
				s += a[ai] * b[bi]
				ai += k
				bi += n
			}
			if accumulate {
				crow[j] += s
			} else {
				crow[j] = s
			}
		}
	}
}

// gemmATBAVX tiles the k×n result the same way as gemmAVX, reducing over
// the m rows of A and B; the column remainder falls back to scalar dots.
func gemmATBAVX[F Float](kn *kernels[F], c, a, b []F, m, k, n, nWide, nTile int, accumulate bool) {
	if !accumulate {
		Zero(c)
	}
	w, atb4, atb4Half, atb1, atb1Half := kn.wide, kn.atb4, kn.atb4Half, kn.atb1, kn.atb1Half
	kMain := k &^ 3
	for p := 0; p < kMain; p += 4 {
		for j := 0; j < nWide; j += w {
			atb4(&a[p], k, &b[j], n, &c[p*n+j], n, m)
		}
		if nTile > nWide {
			atb4Half(&a[p], k, &b[nWide], n, &c[p*n+nWide], n, m)
		}
	}
	for p := kMain; p < k; p++ {
		for j := 0; j < nWide; j += w {
			atb1(&a[p], k, &b[j], n, &c[p*n+j], m)
		}
		if nTile > nWide {
			atb1Half(&a[p], k, &b[nWide], n, &c[p*n+nWide], m)
		}
	}
	if nTile == n {
		return
	}
	for p := 0; p < k; p++ {
		crow := c[p*n : (p+1)*n]
		for j := nTile; j < n; j++ {
			var s F
			ai := p
			bi := j
			for i := 0; i < m; i++ {
				s += a[ai] * b[bi]
				ai += k
				bi += n
			}
			crow[j] += s
		}
	}
}

// gemmATBPanels is the long-reduction form of GemmATB: rank-1 updates of
// four C rows at a time, so each B row loaded from memory feeds four
// multiply-add chains while the 4×n C panel stays cache-hot across the
// whole m sweep.
func gemmATBPanels[F Float](c, a, b []F, m, k, n int, accumulate bool) {
	if !accumulate {
		Zero(c)
	}
	p := 0
	for ; p+4 <= k; p += 4 {
		c0 := c[(p+0)*n : (p+1)*n]
		c1 := c[(p+1)*n : (p+2)*n]
		c2 := c[(p+2)*n : (p+3)*n]
		c3 := c[(p+3)*n : (p+4)*n]
		for i := 0; i < m; i++ {
			a0, a1, a2, a3 := a[i*k+p], a[i*k+p+1], a[i*k+p+2], a[i*k+p+3]
			brow := b[i*n : i*n+n]
			for j, bv := range brow {
				c0[j] += a0 * bv
				c1[j] += a1 * bv
				c2[j] += a2 * bv
				c3[j] += a3 * bv
			}
		}
	}
	for ; p < k; p++ {
		crow := c[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			ap := a[i*k+p]
			brow := b[i*n : i*n+n]
			for j, bv := range brow {
				crow[j] += ap * bv
			}
		}
	}
}

// GemmABT computes C = A·Bᵀ (or C += A·Bᵀ when accumulate is true) where
// A is m×k, B is n×k (so Bᵀ is k×n), and C is m×n. Used for input
// gradients: dX = dY·Wᵀ. Both operands are traversed along contiguous
// rows, so this is the pure dot-product instance of the register tile.
// C must not alias A or B.
func GemmABT[F Float](c, a, b []F, m, k, n int, accumulate bool) {
	checkDims("GemmABT A", len(a), m*k)
	checkDims("GemmABT B", len(b), n*k)
	checkDims("GemmABT C", len(c), m*n)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			Zero(c)
		}
		return
	}
	if kn := kernelsFor[F](); kn.abt2 != nil && k >= kn.wide/2 {
		gemmABTAVX(kn, c, a, b, m, k, n, accumulate)
		return
	}
	i := 0
	for ; i+gemmMR <= m; i += gemmMR {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a1 = a1[:len(a0)]
		j := 0
		for ; j+gemmNR <= n; j += gemmNR {
			b0 := b[(j+0)*k : (j+1)*k][:len(a0)]
			b1 := b[(j+1)*k : (j+2)*k][:len(a0)]
			b2 := b[(j+2)*k : (j+3)*k][:len(a0)]
			b3 := b[(j+3)*k : (j+4)*k][:len(a0)]
			var s00, s01, s02, s03 F
			var s10, s11, s12, s13 F
			for p, a0p := range a0 {
				a1p := a1[p]
				b0p, b1p, b2p, b3p := b0[p], b1[p], b2[p], b3[p]
				s00 += a0p * b0p
				s01 += a0p * b1p
				s02 += a0p * b2p
				s03 += a0p * b3p
				s10 += a1p * b0p
				s11 += a1p * b1p
				s12 += a1p * b2p
				s13 += a1p * b3p
			}
			if accumulate {
				c[i*n+j] += s00
				c[i*n+j+1] += s01
				c[i*n+j+2] += s02
				c[i*n+j+3] += s03
				c[(i+1)*n+j] += s10
				c[(i+1)*n+j+1] += s11
				c[(i+1)*n+j+2] += s12
				c[(i+1)*n+j+3] += s13
			} else {
				c[i*n+j] = s00
				c[i*n+j+1] = s01
				c[i*n+j+2] = s02
				c[i*n+j+3] = s03
				c[(i+1)*n+j] = s10
				c[(i+1)*n+j+1] = s11
				c[(i+1)*n+j+2] = s12
				c[(i+1)*n+j+3] = s13
			}
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s0, s1 F
			for p, bp := range brow {
				s0 += a0[p] * bp
				s1 += a1[p] * bp
			}
			if accumulate {
				c[i*n+j] += s0
				c[(i+1)*n+j] += s1
			} else {
				c[i*n+j] = s0
				c[(i+1)*n+j] = s1
			}
		}
	}
	if i < m {
		arow := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s F
			for p, ap := range arow {
				s += ap * brow[p]
			}
			if accumulate {
				c[i*n+j] += s
			} else {
				c[i*n+j] = s
			}
		}
	}
}

// gemmABTAVX hands each pair of C rows to the table's row-pair kernel over
// the columns that form whole groups of four, then finishes the n%4 column
// remainder and an odd last row with dots summed in element order.
func gemmABTAVX[F Float](kn *kernels[F], c, a, b []F, m, k, n int, accumulate bool) {
	mMain := m &^ 1
	nMain := n &^ 3
	if nMain > 0 {
		abt2 := kn.abt2
		for i := 0; i < mMain; i += 2 {
			abt2(&a[i*k], &a[(i+1)*k], &b[0], k, nMain/4, &c[i*n], &c[(i+1)*n], accumulate)
		}
	}
	// Remainder columns of the paired rows, then an odd last row. Each is
	// one vector against consecutive rows of the other operand, and the
	// results are consecutive along a column or a row of C.
	for j := nMain; j < n; j++ {
		abtEdge(c[j:], n, a[:mMain*k], b[j*k:(j+1)*k], accumulate)
	}
	if mMain < m {
		abtEdge(c[mMain*n:], 1, b, a[mMain*k:], accumulate)
	}
}

// abtEdge stores (or adds) the dot product of y with each length-len(y)
// row of rows into out[0], out[stride], out[2·stride], … Every dot product
// is summed front to back with each product rounded before it is added —
// the order GemmABT's edges are pinned to — and four of them run at a time,
// so four independent add chains are in flight instead of one.
func abtEdge[F Float](out []F, stride int, rows, y []F, accumulate bool) {
	k := len(y)
	put := func(at int, s F) {
		if accumulate {
			out[at*stride] += s
		} else {
			out[at*stride] = s
		}
	}
	r, nr := 0, len(rows)/k
	for ; r+4 <= nr; r += 4 {
		x0 := rows[r*k : (r+1)*k][:k]
		x1 := rows[(r+1)*k : (r+2)*k][:k]
		x2 := rows[(r+2)*k : (r+3)*k][:k]
		x3 := rows[(r+3)*k : (r+4)*k][:k]
		var s0, s1, s2, s3 F
		for p, yp := range y {
			s0 += x0[p] * yp
			s1 += x1[p] * yp
			s2 += x2[p] * yp
			s3 += x3[p] * yp
		}
		put(r, s0)
		put(r+1, s1)
		put(r+2, s2)
		put(r+3, s3)
	}
	for ; r < nr; r++ {
		x := rows[r*k : (r+1)*k][:k]
		var s F
		for p, yp := range y {
			s += x[p] * yp
		}
		put(r, s)
	}
}

// GemmBias computes C = A·B + bias for a layer's forward pass: with perRow
// false bias has n entries, one per column (a dense layer's units), and
// with perRow true m entries, one per row (a convolution's channels). It
// seeds C with the bias and accumulates the product onto it, so each
// element takes one add, the tile's accumulator plus the seed, where a
// product into zeroed C and a separate bias pass, (0 + acc) + bias, took
// two adds and one more pass over C. The sums have the same bits except
// where a −0 accumulator (an FMA tile's, when a negative product
// underflows) meets a −0 bias, which the zeroed C turned into +0; a NaN
// meeting a NaN is still NaN. So a bias holding −0 takes the two passes,
// as does a product whose reduction the pure-Go driver blocks (k >
// gemmKC), where a seed would enter the sum before its later blocks.
func GemmBias[F Float](c, a, b, bias []F, m, k, n int, perRow bool) {
	checkDims("GemmBias C", len(c), m*n)
	if perRow {
		checkDims("GemmBias bias", len(bias), m)
	} else {
		checkDims("GemmBias bias", len(bias), n)
	}
	kn := kernelsFor[F]()
	_, nTile := kn.tileSpans(kn.gemm4Half != nil, n)
	if blocked := k > gemmKC && (kn.gemm4 == nil || nTile == 0); blocked || hasNegZero(bias) {
		Gemm(c, a, b, m, k, n, false)
		if !perRow {
			AddRowVector(c, bias, m, n)
			return
		}
		for i, v := range bias {
			row := c[i*n : (i+1)*n]
			for j := range row {
				row[j] += v
			}
		}
		return
	}
	if len(c) == 0 {
		return
	}
	if perRow {
		for i, v := range bias {
			fill(c[i*n:(i+1)*n], v)
		}
	} else {
		copy(c, bias)
		repeat(c, n)
	}
	Gemm(c, a, b, m, k, n, true)
}

// fill sets every element of v to x: the table's fill body over the
// whole-stride head, then a store loop.
func fill[F Float](v []F, x F) {
	kn := kernelsFor[F]()
	if i := kn.head(kn.fill != nil, len(v)); i > 0 {
		kn.fill(&v[0], x, i)
		v = v[i:]
	}
	for j := range v {
		v[j] = x
	}
}

// repeat copies the first k elements of v over the rest of v, doubling the
// span each copy covers, so a fill takes log₂(len(v)/k) copies.
func repeat[F Float](v []F, k int) {
	for k < len(v) {
		k += copy(v[k:], v[:k])
	}
}

// hasNegZero reports whether v holds a −0.
func hasNegZero[F Float](v []F) bool {
	for _, x := range v {
		if x == 0 && math.Signbit(float64(x)) {
			return true
		}
	}
	return false
}

// Gemm32 is Gemm at float32, named for callers outside the module that
// link it by name.
func Gemm32(c, a, b []float32, m, k, n int, accumulate bool) {
	Gemm(c, a, b, m, k, n, accumulate)
}

// AddRowVector adds the length-n vector v to each of the m rows of the
// m×n matrix a in place: the LSTM's gate bias, added after the two
// products that sum into its gates (a bias seeded under them, as GemmBias
// does, would reassociate that sum). Each row is one in-place Add, with
// the kernel prefix resolved once for all rows so narrow rows cost no
// call.
func AddRowVector[F Float](a, v []F, m, n int) {
	checkDims("AddRowVector A", len(a), m*n)
	checkDims("AddRowVector v", len(v), n)
	kn := kernelsFor[F]()
	head := kn.head(kn.add != nil, n)
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		if head > 0 {
			kn.add(&row[0], &v[0], &row[0], head)
		}
		for j, vj := range v[head:] {
			row[head+j] += vj
		}
	}
}

// SumRowsAcc accumulates the column sums of the m×n matrix a into the
// length-n vector dst (dst[j] += Σ_i a[i][j]), one in-place row Add at a
// time, so every column sees the same add sequence whichever body runs.
// Layers use it to fold bias gradients straight into the gradient vector.
func SumRowsAcc[F Float](dst, a []F, m, n int) {
	checkDims("SumRowsAcc A", len(a), m*n)
	checkDims("SumRowsAcc dst", len(dst), n)
	kn := kernelsFor[F]()
	head := kn.head(kn.add != nil, n)
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		if head > 0 {
			kn.add(&dst[0], &row[0], &dst[0], head)
		}
		for j, v := range row[head:] {
			dst[head+j] += v
		}
	}
}
