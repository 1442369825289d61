// Package nn is a self-contained neural-network substrate with manual
// backpropagation, written against the Go standard library only. It exists
// because the paper's experiments train MLP/CNN/ResNet/LSTM models with
// PyTorch, which has no Go equivalent in this offline environment.
//
// Design notes:
//
//   - Model parameters live in one flat vector ([]float64 at the server
//     and in every algorithm hook; []float32 only inside an fp32 client's
//     local loop). Federated-learning
//     algorithms manipulate whole parameter vectors (deltas, corrections,
//     EMA aggregation), so a contiguous layout makes every algorithm a few
//     vector kernels.
//   - A Network is an immutable architecture description shared by all
//     clients; each concurrent worker owns an Engine[F], which carries the
//     activation and scratch buffers for forward/backward passes at
//     precision F.
//   - Each layer's forward and backward pass is one precision-generic
//     body over row-major batch buffers; the engine reaches it through
//     the dispatch in generic.go. Gradient correctness is enforced by
//     finite-difference tests.
package nn

import (
	"fmt"

	"repro/internal/rng"
)

// Shape describes an activation volume with C channels of H×W spatial
// extent. Fully-connected activations use H = W = 1.
type Shape struct {
	C, H, W int
}

// Size returns the number of scalars in the volume.
func (s Shape) Size() int { return s.C * s.H * s.W }

// Vec returns a 1-D shape with n features.
func Vec(n int) Shape { return Shape{C: n, H: 1, W: 1} }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// scratch holds per-layer working memory owned by an Engine, in the
// engine's compute precision. Layers size the fields they need on first
// use; buffers are reused across steps. Buffers persist between a forward
// call and the backward call that follows it (the layer contract
// guarantees the pairing), so layers may stash forward-pass state —
// im2col packings, LSTM gate records — instead of recomputing it.
type scratch[F Float] struct {
	ints     []int
	floats   []F
	cols     []F           // im2col packing, kept separate so it survives floatBuf use
	children []*scratch[F] // sub-layer scratches for composite layers (residual)
}

func (s *scratch[F]) intBuf(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, n)
	}
	return s.ints[:n]
}

func (s *scratch[F]) floatBuf(n int) []F {
	if cap(s.floats) < n {
		s.floats = make([]F, n)
	}
	return s.floats[:n]
}

func (s *scratch[F]) colBuf(n int) []F {
	if cap(s.cols) < n {
		s.cols = make([]F, n)
	}
	return s.cols[:n]
}

// child returns the i-th sub-scratch, allocating up to it on first use.
// Composite layers hand one to each inner layer so their buffers never
// collide with the parent's.
func (s *scratch[F]) child(i int) *scratch[F] {
	for len(s.children) <= i {
		s.children = append(s.children, &scratch[F]{})
	}
	return s.children[i]
}

// layer is the internal building-block contract: the shape and parameter
// bookkeeping of one layer. Concrete layers are constructed with their
// input shape already resolved by the Builder, so the methods carry no
// shape arguments. The passes themselves are generic functions (Go methods
// cannot be generic), reached through forward/backward in generic.go.
type layer interface {
	name() string
	inShape() Shape
	outShape() Shape
	paramCount() int
	// initParams writes initial weights into params (length paramCount).
	// Initialization is always float64; the fp32 path narrows afterwards.
	initParams(params []float64, r *rng.RNG)
}

// Network is an immutable feed-forward architecture: an ordered list of
// layers with resolved shapes and a flat parameter layout.
type Network struct {
	in      Shape
	layers  []layer
	offsets []int // offsets[i] is the params offset of layer i
	total   int
	classes int // output dimension; set by Build from the last layer
}

// InShape returns the network input shape.
func (n *Network) InShape() Shape { return n.in }

// OutSize returns the output (logit) dimension.
func (n *Network) OutSize() int { return n.classes }

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int { return n.total }

// NumLayers returns the number of layers.
func (n *Network) NumLayers() int { return len(n.layers) }

// InitParams allocates and initializes a fresh parameter vector.
func (n *Network) InitParams(r *rng.RNG) []float64 {
	params := make([]float64, n.total)
	for i, l := range n.layers {
		off := n.offsets[i]
		l.initParams(params[off:off+l.paramCount()], r)
	}
	return params
}

// String describes the architecture, one layer per line.
func (n *Network) String() string {
	s := fmt.Sprintf("input %v\n", n.in)
	for _, l := range n.layers {
		s += fmt.Sprintf("%-12s %v -> %v (%d params)\n", l.name(), l.inShape(), l.outShape(), l.paramCount())
	}
	return s
}

// Builder assembles a Network layer by layer, threading shapes through.
type Builder struct {
	in     Shape
	layers []layer
	err    error
}

// NewBuilder starts a network with the given input shape.
func NewBuilder(in Shape) *Builder {
	b := &Builder{in: in}
	if in.Size() <= 0 {
		b.err = fmt.Errorf("nn: input shape %v has non-positive size", in)
	}
	return b
}

func (b *Builder) cur() Shape {
	if len(b.layers) == 0 {
		return b.in
	}
	return b.layers[len(b.layers)-1].outShape()
}

func (b *Builder) add(l layer, err error) *Builder {
	if b.err != nil {
		return b
	}
	if err != nil {
		b.err = err
		return b
	}
	b.layers = append(b.layers, l)
	return b
}

// Build finalizes the network. It returns an error when any layer was
// misconfigured or when the network has no layers.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.layers) == 0 {
		return nil, fmt.Errorf("nn: network has no layers")
	}
	n := &Network{
		in:      b.in,
		layers:  b.layers,
		offsets: make([]int, len(b.layers)),
	}
	for i, l := range b.layers {
		n.offsets[i] = n.total
		n.total += l.paramCount()
	}
	n.classes = b.layers[len(b.layers)-1].outShape().Size()
	return n, nil
}

// MustBuild is Build for statically known-good architectures (the model
// zoo); it panics on configuration errors.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}
