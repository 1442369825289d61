package vecmath

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"
)

// reluDef and reluGradDef are the scalar definition the contract is stated
// against: a plain compare, false on NaN.
func reluDef[F Float](x F) F {
	if x > 0 {
		return x
	}
	return 0
}

func reluGradDef[F Float](x, dy F) F {
	if x > 0 {
		return dy
	}
	return 0
}

// bitsOf widens either precision's bit pattern to uint64 so one comparison
// serves both (NaN != NaN, and +0 == −0, rule out comparing values).
func bitsOf[F Float](v F) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// reluPool returns the inputs the contract names — NaN of either sign, ±0,
// ±Inf, the smallest denormal and the largest power of two of either
// sign, ±1 — followed by random normals.
func reluPool[F Float](rng *rand.Rand) []F {
	denorm, big := F(1), F(1)
	for denorm/2 > 0 {
		denorm /= 2
	}
	for !math.IsInf(float64(big*2), 0) {
		big *= 2
	}
	nan := F(math.NaN())
	pool := []F{nan, F(math.Copysign(float64(nan), -1)), 0, F(math.Copysign(0, -1)),
		F(math.Inf(1)), F(math.Inf(-1)), denorm, -denorm, 1, -1, big, -big}
	for i := 0; i < 24; i++ {
		pool = append(pool, F(rng.NormFloat64()))
	}
	return pool
}

// TestReLUContract pins what ReLU and ReLUGrad return, bit for bit: the
// driver (assembly head plus pure-Go tail, or all pure Go under -tags
// noasm), the pure-Go loop on its own and the scalar definition must agree
// on every special value at every position of every length that splits
// differently into head and tail, out of place and in place.
func TestReLUContract(t *testing.T) {
	t.Run("f64", testReLUContract[float64])
	t.Run("f32", testReLUContract[float32])
}

func testReLUContract[F Float](t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	pool := reluPool[F](rng)
	const maxLen = 2*16 + 1 // past two strides of the wider (float32) kernel
	for n := 0; n <= maxLen; n++ {
		for rot := range pool {
			x, dy := make([]F, n), make([]F, n)
			for i := range x {
				x[i] = pool[(i+rot)%len(pool)]
				dy[i] = pool[(i+2*rot+5)%len(pool)] // specials flow through the gate too
			}
			y, yGo := make([]F, n), make([]F, n)
			dx, dxGo := make([]F, n), make([]F, n)
			ReLU(y, x)
			reluGo(yGo, x)
			ReLUGrad(dx, dy, x)
			reluGradGo(dxGo, dy, x)
			yIn := append([]F(nil), x...)
			ReLU(yIn, yIn)
			dxIn := append([]F(nil), dy...)
			ReLUGrad(dxIn, dxIn, x)
			for i := range x {
				want, wantGrad := bitsOf(reluDef(x[i])), bitsOf(reluGradDef(x[i], dy[i]))
				for _, c := range []struct {
					name string
					got  F
					want uint64
				}{
					{"ReLU", y[i], want}, {"reluGo", yGo[i], want}, {"ReLU in place", yIn[i], want},
					{"ReLUGrad", dx[i], wantGrad}, {"reluGradGo", dxGo[i], wantGrad}, {"ReLUGrad in place", dxIn[i], wantGrad},
				} {
					if got := bitsOf(c.got); got != c.want {
						t.Fatalf("n=%d rot=%d i=%d x=%v (%#x) dy=%v: %s = %#x, definition gives %#x",
							n, rot, i, x[i], bitsOf(x[i]), dy[i], c.name, got, c.want)
					}
				}
			}
		}
	}
}

func TestReLUPanicsOnLengthMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"ReLU":     func() { ReLU(make([]float64, 3), make([]float64, 4)) },
		"ReLUGrad": func() { ReLUGrad(make([]float32, 4), make([]float32, 4), make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic for mismatched lengths", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkReLU reports the rectifier's memory throughput (bytes read plus
// bytes written per second) at the fmnist CNN's first activation size,
// forward and backward at both precisions, on random-sign input — the case
// a compare-and-branch body mispredicts on.
func BenchmarkReLU(b *testing.B) {
	b.Run("f64", benchReLU[float64])
	b.Run("f32", benchReLU[float32])
}

func benchReLU[F Float](b *testing.B) {
	const n = 24 * 6 * 8 * 8
	rng := rand.New(rand.NewPCG(31, 37))
	x, dy, out := make([]F, n), make([]F, n), make([]F, n)
	for i := range x {
		x[i], dy[i] = F(rng.NormFloat64()), F(rng.NormFloat64())
	}
	elem := float64(unsafe.Sizeof(x[0]))
	b.Run("fwd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReLU(out, x)
		}
		b.ReportMetric(2*elem*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
	})
	b.Run("bwd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReLUGrad(out, dy, x)
		}
		b.ReportMetric(3*elem*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
	})
}
