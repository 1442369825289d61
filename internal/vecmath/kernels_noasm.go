//go:build !amd64 || noasm

package vecmath

// useAVX is false on builds without the assembly bodies, so the compiler
// removes the remaining direct dispatch branches (sparse.go, math32.go).
const useAVX = false

// Empty tables: every generic driver runs its pure-Go loop.
var (
	kern64 kernels[float64]
	kern32 kernels[float32]
)
