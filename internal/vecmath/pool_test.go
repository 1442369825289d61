package vecmath

import (
	"math"
	"math/rand/v2"
	"testing"
)

// pool2Def is the definition MaxPool2x2 is stated against, one window at a
// time: best = a, then b, c, d replace it when strictly greater.
func pool2Def(taps [4]float64, offs [4]int) (float64, int) {
	best, at := taps[0], offs[0]
	for k := 1; k < 4; k++ {
		if taps[k] > best {
			best, at = taps[k], offs[k]
		}
	}
	return best, at
}

// pool2Windows returns every ordered window over the special values the
// contract names — NaN and −NaN with payloads, ±0, ±Inf, the smallest
// subnormal of either sign, ±1 and the largest finite value — so each
// special sits in every window position against every other, ties and
// all-equal windows included; then random normals, up to a multiple of 48
// windows so every tested width fills whole row pairs.
func pool2Windows() [][4]float64 {
	specials := []float64{
		math.Float64frombits(0x7ff8_0000_0000_0123),
		math.Float64frombits(0xfff8_0000_0000_0456),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1, -1, math.MaxFloat64,
	}
	var ws [][4]float64
	for _, a := range specials {
		for _, b := range specials {
			for _, c := range specials {
				for _, d := range specials {
					ws = append(ws, [4]float64{a, b, c, d})
				}
			}
		}
	}
	rng := rand.New(rand.NewPCG(59, 61))
	for len(ws)%48 != 0 {
		ws = append(ws, [4]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	return ws
}

// TestMaxPool2Contract pins MaxPool2x2 bit for bit, values and argmax
// offsets: the driver (the float64 table entry where it applies, or the
// pure-Go loop under -tags noasm) and maxPool2Go must both equal the
// definition on every special-value window at input widths 2, 4, 6, 8 and
// 16, and on a stack with an odd number of row pairs.
func TestMaxPool2Contract(t *testing.T) {
	windows := pool2Windows()
	for _, inW := range []int{2, 4, 6, 8, 16} {
		outW := inW / 2
		for _, drop := range []int{0, 1} {
			pairs := len(windows)/outW - drop
			x := make([]float64, 2*pairs*inW)
			defs := make([]float64, pairs*outW)
			defArgs := make([]int, len(defs))
			for w := range defs {
				i0 := 2*(w/outW)*inW + 2*(w%outW)
				offs := [4]int{i0, i0 + 1, i0 + inW, i0 + inW + 1}
				for k, off := range offs {
					x[off] = windows[w][k]
				}
				defs[w], defArgs[w] = pool2Def(windows[w], offs)
			}
			y, yGo := make([]float64, len(defs)), make([]float64, len(defs))
			arg, argGo := make([]int, len(defs)), make([]int, len(defs))
			MaxPool2x2(y, arg, x, inW)
			maxPool2Go(yGo, argGo, x, inW)
			for w := range defs {
				want := math.Float64bits(defs[w])
				for _, c := range []struct {
					name string
					got  float64
					at   int
				}{{"MaxPool2x2", y[w], arg[w]}, {"maxPool2Go", yGo[w], argGo[w]}} {
					if g := math.Float64bits(c.got); g != want || c.at != defArgs[w] {
						t.Fatalf("inW=%d pairs=%d window %d %v: %s = %#x at %d, definition gives %#x at %d",
							inW, pairs, w, windows[w], c.name, g, c.at, want, defArgs[w])
					}
				}
			}
		}
	}
}

func TestMaxPool2PanicsOnShape(t *testing.T) {
	for name, f := range map[string]func(){
		"odd width":      func() { MaxPool2x2(make([]float64, 3), make([]int, 3), make([]float64, 12), 3) },
		"half row pair":  func() { MaxPool2x2(make([]float64, 1), make([]int, 1), make([]float64, 4), 4) },
		"short output":   func() { MaxPool2x2(make([]float64, 1), make([]int, 2), make([]float64, 8), 4) },
		"short argmaxes": func() { MaxPool2x2(make([]float32, 2), make([]int, 1), make([]float32, 8), 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
