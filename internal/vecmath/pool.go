package vecmath

// MaxPool2x2 is the non-overlapping 2×2 max-pool of x, a stack of rows of
// inW elements taken in pairs: row pair r (input rows 2r and 2r+1) gives
// output row r of inW/2 elements. Planes are contiguous, so a C×H×W volume
// with H even is simply C·H/2 row pairs and no plane boundary needs
// handling. Each output cell is the maximum of its window
//
//	a = x[i0], b = x[i0+1], c = x[i1], d = x[i1+1]   (i1 = i0 + inW)
//
// taken as the chain best = a; then b, c, d in turn replace best when
// strictly greater. A comparison involving NaN is false and a tie keeps the
// earlier element, so a NaN in the first position wins, a NaN elsewhere
// loses, and +0 vs −0 keeps whichever came first. arg receives the offset
// within x of the element each output copied.
//
// The float64 table entry runs this chain as compare-and-blend over four
// windows per vector (TestMaxPool2Contract) for inW 4 and 8, the fmnist
// CNN's two pooling widths; other widths, float32 and builds without the
// entry run maxPool2Go, the compare-and-branch loop.
func MaxPool2x2[F Float](y []F, arg []int, x []F, inW int) {
	if inW <= 0 || inW%2 != 0 || len(x)%(2*inW) != 0 {
		panic("vecmath: MaxPool2x2: input is not a stack of row pairs of even width")
	}
	checkLen("MaxPool2x2", len(y), len(x)/4)
	checkLen("MaxPool2x2", len(arg), len(y))
	kn := kernelsFor[F]()
	if kn.pool2 != nil && (inW == 4 || inW == 8) && len(x) > 0 && len(x)%16 == 0 {
		kn.pool2(&x[0], &y[0], &arg[0], &pool2Lanes[inW/4-1], inW, len(x)/16)
		return
	}
	maxPool2Go(y, arg, x, inW)
}

// pool2Lanes holds the pool2 entry's lanes argument for inW 4 and 8: the
// offset of each vector lane's first tap in a block of 16 inputs (lane
// order in pool_amd64.s). The table entry is called through a function
// value, which escape analysis cannot see into, so a local array would be
// moved to the heap on every call.
var pool2Lanes = [2][4]int{{0, 8, 2, 10}, {0, 4, 2, 6}}

// maxPool2Go is the chain of MaxPool2x2 as compare-and-branch code.
func maxPool2Go[F Float](y []F, arg []int, x []F, inW int) {
	outW := inW / 2
	for r := 0; r < len(y)/outW; r++ {
		r0 := 2 * r * inW
		r1 := r0 + inW
		o := r * outW
		for ox := 0; ox < outW; ox++ {
			i0 := r0 + 2*ox
			i1 := r1 + 2*ox
			bi, bv := i0, x[i0]
			if v := x[i0+1]; v > bv {
				bi, bv = i0+1, v
			}
			if v := x[i1]; v > bv {
				bi, bv = i1, v
			}
			if v := x[i1+1]; v > bv {
				bi, bv = i1+1, v
			}
			y[o+ox] = bv
			arg[o+ox] = bi
		}
	}
}
