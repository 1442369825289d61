//go:build amd64 && !noasm

package vecmath

// gatherKernel and gatherSumKernel are the float64 Gather and GatherSum
// table entries (bodies in gather_amd64.s). gatherKernel copies
// src[idx[i]] to dst[i] for the first n entries, n a positive multiple of
// four. gatherSumKernel writes n blocks of four outputs, each lane the sum
// from +0 of src at its slots offsets, taken in slot order.
//
//go:noescape
func gatherKernel(dst, src *float64, idx *int32, n int)

//go:noescape
func gatherSumKernel(dst, src *float64, rows *int32, slots, n int)
