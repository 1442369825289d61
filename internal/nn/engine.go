package nn

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/vecmath"
)

// Engine executes forward and backward passes for one Network over
// parameters and activations of precision F. It owns all activation and
// scratch buffers, so it is cheap to call repeatedly but not safe for
// concurrent use: every concurrent worker (FL client goroutine) must
// create its own Engine against the shared Network. The loss scalar is
// float64 at either precision — training-curve metrics stay full
// precision even when the compute path is fp32.
type Engine[F Float] struct {
	net      *Network
	maxBatch int
	acts     [][]F // acts[i] is the output buffer of layer i-1 (acts[0] unused; input comes from caller)
	dacts    [][]F // gradient buffers per boundary, same layout (dacts[0] stays nil: no input gradient)
	scratch  []scratch[F]
	evalPool []*Engine[F] // lazily grown worker engines for parallel Accuracy
	preds    []int        // CountCorrect's per-batch predictions, sized on first evaluation
	counts   []int        // accuracyWorkers' per-worker tallies
}

// NewEngine creates a float64 execution engine supporting batches up to
// maxBatch.
func NewEngine(net *Network, maxBatch int) *Engine[float64] {
	return newEngine[float64](net, maxBatch)
}

// NewEngine32 creates a float32 execution engine supporting batches up to
// maxBatch (the local-training engine of fl's DType "f32").
func NewEngine32(net *Network, maxBatch int) *Engine[float32] {
	return newEngine[float32](net, maxBatch)
}

func newEngine[F Float](net *Network, maxBatch int) *Engine[F] {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("nn: engine maxBatch %d must be positive", maxBatch))
	}
	e := &Engine[F]{
		net:      net,
		maxBatch: maxBatch,
		acts:     make([][]F, len(net.layers)+1),
		dacts:    make([][]F, len(net.layers)+1),
		scratch:  make([]scratch[F], len(net.layers)),
	}
	for i, l := range net.layers {
		e.acts[i+1] = make([]F, maxBatch*l.outShape().Size())
	}
	return e
}

// ensureGradBuffers allocates the backward-pass activation-gradient
// buffers on first use, so inference-only engines (prediction, the
// Accuracy worker pool) stay at half the footprint. There is none for the
// network input: nothing consumes the gradient with respect to the data,
// so dacts[0] stays nil and the first layer skips computing it.
func (e *Engine[F]) ensureGradBuffers() {
	if e.dacts[len(e.net.layers)] != nil {
		return
	}
	for i, l := range e.net.layers {
		e.dacts[i+1] = make([]F, e.maxBatch*l.outShape().Size())
	}
}

// Net returns the architecture this engine executes.
func (e *Engine[F]) Net() *Network { return e.net }

func (e *Engine[F]) checkBatch(x []F, batch int) {
	if batch <= 0 || batch > e.maxBatch {
		panic(fmt.Sprintf("nn: batch %d out of range (1..%d)", batch, e.maxBatch))
	}
	if len(x) < batch*e.net.in.Size() {
		panic(fmt.Sprintf("nn: input has %d floats, need %d", len(x), batch*e.net.in.Size()))
	}
}

// forwardPass runs all layers; the final logits live in e.acts[len(layers)].
func (e *Engine[F]) forwardPass(params, x []F, batch int) []F {
	e.acts[0] = x
	for i, l := range e.net.layers {
		off := e.net.offsets[i]
		p := params[off : off+l.paramCount()]
		forward(l, p, e.acts[i], e.acts[i+1], batch, &e.scratch[i])
	}
	return e.acts[len(e.net.layers)]
}

// Gradient runs a full forward/backward pass over the mini-batch x (row-
// major batch×inputSize) with integer labels, writes the gradient of the
// mean loss into grad (zeroed first), and returns the mean loss.
func (e *Engine[F]) Gradient(params, x []F, labels []int, grad []F) float64 {
	batch := len(labels)
	e.checkBatch(x, batch)
	if len(grad) != e.net.total {
		panic(fmt.Sprintf("nn: grad has %d elements, want %d", len(grad), e.net.total))
	}
	e.ensureGradBuffers()
	logits := e.forwardPass(params, x, batch)
	nl := len(e.net.layers)
	loss := SoftmaxCrossEntropy(logits[:batch*e.net.classes], labels, e.net.classes, e.dacts[nl])
	vecmath.Zero(grad)
	for i := nl - 1; i >= 0; i-- {
		l := e.net.layers[i]
		off := e.net.offsets[i]
		p := params[off : off+l.paramCount()]
		dp := grad[off : off+l.paramCount()]
		backward(l, p, e.acts[i], e.acts[i+1], e.dacts[i+1], e.dacts[i], dp, batch, &e.scratch[i])
	}
	return loss
}

// Loss runs a forward pass only and returns the mean cross-entropy loss.
func (e *Engine[F]) Loss(params, x []F, labels []int) float64 {
	batch := len(labels)
	e.checkBatch(x, batch)
	logits := e.forwardPass(params, x, batch)
	return SoftmaxCrossEntropy(logits[:batch*e.net.classes], labels, e.net.classes, nil)
}

// Predict writes the argmax class of each of the batch inputs into out.
func (e *Engine[F]) Predict(params, x []F, batch int, out []int) {
	e.checkBatch(x, batch)
	if len(out) < batch {
		panic(fmt.Sprintf("nn: out has %d elements, need %d", len(out), batch))
	}
	logits := e.forwardPass(params, x, batch)
	c := e.net.classes
	for s := 0; s < batch; s++ {
		out[s] = Argmax(logits[s*c : (s+1)*c])
	}
}

// Accuracy evaluates classification accuracy over a full dataset given as
// flattened features xs and labels, batching internally. Batches are
// sharded across a bounded worker pool (at most GOMAXPROCS workers, each
// with its own Engine, reused across calls); because every worker counts
// correct predictions as an integer and the shards partition the dataset,
// the result is identical to a sequential pass regardless of scheduling.
func (e *Engine[F]) Accuracy(params, xs []F, labels []int) float64 {
	return e.accuracyWorkers(params, xs, labels, runtime.GOMAXPROCS(0))
}

func (e *Engine[F]) accuracyWorkers(params, xs []F, labels []int, maxWorkers int) float64 {
	n := len(labels)
	if n == 0 {
		return 0
	}
	numBatches := (n + e.maxBatch - 1) / e.maxBatch
	workers := min(maxWorkers, numBatches)
	if workers <= 1 {
		return float64(e.CountCorrect(params, xs, labels, 0, 1, nil)) / float64(n)
	}
	for len(e.evalPool) < workers-1 {
		e.evalPool = append(e.evalPool, newEngine[F](e.net, e.maxBatch))
	}
	if cap(e.counts) < workers {
		e.counts = make([]int, workers)
	}
	counts := e.counts[:workers]
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts[w] = e.evalPool[w-1].CountCorrect(params, xs, labels, w, workers, nil)
		}(w)
	}
	counts[0] = e.CountCorrect(params, xs, labels, 0, workers, nil)
	wg.Wait()
	correct := 0
	for _, c := range counts {
		correct += c
	}
	return float64(correct) / float64(n)
}

// CountCorrect evaluates every stride-th batch of the engine's batch size,
// starting at batch index first, and returns how many predictions match
// the labels. With classes non-nil it also adds each prediction to its
// class's tally. Accuracy's shards, and any caller that splits an
// evaluation the same way, share these batch bounds, so integer counts
// summed over first = 0..stride−1 equal one sequential pass.
func (e *Engine[F]) CountCorrect(params, xs []F, labels []int, first, stride int, classes []int) int {
	n := len(labels)
	inSize := e.net.in.Size()
	if e.preds == nil {
		e.preds = make([]int, e.maxBatch)
	}
	preds := e.preds
	correct := 0
	for start := first * e.maxBatch; start < n; start += stride * e.maxBatch {
		end := min(start+e.maxBatch, n)
		b := end - start
		e.Predict(params, xs[start*inSize:end*inSize], b, preds)
		for i, c := range preds[:b] {
			if c == labels[start+i] {
				correct++
			}
			if classes != nil {
				classes[c]++
			}
		}
	}
	return correct
}
