package nn

import (
	"fmt"
	"hash/fnv"
)

// Fingerprint returns a stable hash of the architecture: layer kinds,
// input shape, and per-layer parameter counts.
func (n *Network) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "in=%v;", n.in)
	for _, l := range n.layers {
		fmt.Fprintf(h, "%s:%v->%v:%d;", l.name(), l.inShape(), l.outShape(), l.paramCount())
	}
	return h.Sum64()
}
