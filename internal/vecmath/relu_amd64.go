//go:build amd64 && !noasm

package vecmath

// ReLU table entries (bodies in relu_amd64.s), two YMM vectors per
// iteration at either precision; n must be a positive multiple of wide.
// Outputs may alias inputs.

// reluKernel writes y[i] = x[i] where x[i] > 0 and +0 elsewhere.
//
//go:noescape
func reluKernel(x, y *float64, n int)

// reluGradKernel writes dx[i] = dy[i] where x[i] > 0 and +0 elsewhere.
//
//go:noescape
func reluGradKernel(x, dy, dx *float64, n int)

//go:noescape
func relu32Kernel(x, y *float32, n int)

//go:noescape
func reluGrad32Kernel(x, dy, dx *float32, n int)
