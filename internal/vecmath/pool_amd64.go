//go:build amd64 && !noasm

package vecmath

// pool2Kernel is the float64 2×2 max-pool table entry (body in
// pool_amd64.s): n blocks of 16 inputs of x, four windows each, into
// y[:4n] and arg[:4n]. inW must be 4 or 8, and lanes the a-tap offsets
// {0, q, 2, q+2} with q = 32/inW (pool2Lanes).
//
//go:noescape
func pool2Kernel(x, y *float64, arg *int, lanes *[4]int, inW, n int)
