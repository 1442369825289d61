// Package dataset synthesizes the eight datasets used by the paper's
// evaluation. The real corpora (MNIST, FMNIST, FEMNIST, SVHN, CIFAR-10/100,
// UCI adult, LEAF Shakespeare) cannot be downloaded in this offline
// environment, so each is replaced by a generator that preserves the
// properties the experiments depend on: class structure for label-skew
// partitioning, controllable difficulty so the papers' relative hardness
// ordering holds, and the same model families (CNN on images, MLP on
// tabular data, LSTM on character sequences). DESIGN.md §1 records the
// substitutions.
package dataset

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/rng"
)

// Dataset is a complete supervised dataset with flattened features.
// X holds Len()·In.Size() float64s in row-major order; Y holds one integer
// class label per sample. Groups optionally carries a natural-partition key
// (for example the synthetic speaker of a text sample); it is nil when the
// dataset has no natural grouping.
type Dataset struct {
	Name    string
	In      nn.Shape
	Classes int
	X       []float64
	Y       []int
	Groups  []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Gather copies the samples at the given indices into x (row-major) and y.
// Buffers must hold len(indices) samples. indices may be y itself: each
// index is read before its label overwrites it.
func (d *Dataset) Gather(indices []int, x []float64, y []int) {
	size := d.In.Size()
	for i, idx := range indices {
		copy(x[i*size:(i+1)*size], d.X[idx*size:(idx+1)*size])
		y[i] = d.Y[idx]
	}
}

// Subset returns a new Dataset containing copies of the samples at the
// given indices (Groups metadata included when present).
func (d *Dataset) Subset(indices []int) *Dataset {
	size := d.In.Size()
	sub := &Dataset{
		Name:    d.Name,
		In:      d.In,
		Classes: d.Classes,
		X:       make([]float64, len(indices)*size),
		Y:       make([]int, len(indices)),
	}
	if d.Groups != nil {
		sub.Groups = make([]int, len(indices))
	}
	for i, idx := range indices {
		copy(sub.X[i*size:(i+1)*size], d.X[idx*size:(idx+1)*size])
		sub.Y[i] = d.Y[idx]
		if d.Groups != nil {
			sub.Groups[i] = d.Groups[idx]
		}
	}
	return sub
}

// LabelCounts returns a histogram of labels.
func (d *Dataset) LabelCounts() []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Validate checks internal consistency; generators call it before
// returning and tests use it on partitioned shards.
func (d *Dataset) Validate() error {
	size := d.In.Size()
	if size <= 0 {
		return fmt.Errorf("dataset %s: input shape %v has non-positive size", d.Name, d.In)
	}
	if len(d.X) != len(d.Y)*size {
		return fmt.Errorf("dataset %s: have %d feature floats for %d samples of size %d", d.Name, len(d.X), len(d.Y), size)
	}
	if d.Groups != nil && len(d.Groups) != len(d.Y) {
		return fmt.Errorf("dataset %s: %d group keys for %d samples", d.Name, len(d.Groups), len(d.Y))
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			return fmt.Errorf("dataset %s: label %d at sample %d out of range [0,%d)", d.Name, y, i, d.Classes)
		}
	}
	return nil
}

// Sampler draws uniform mini-batches from a dataset, matching the paper's
// "uniformly at random samples a mini batch" local-update model. It owns
// its RNG so concurrent clients sample independently and deterministically.
// It holds no buffers, so a fleet's samplers fit in one slab (NewSamplers).
type Sampler struct {
	data *Dataset
	r    *rng.RNG
}

// NewSampler creates a mini-batch sampler over data.
func NewSampler(data *Dataset, r *rng.RNG) *Sampler {
	return &Sampler{data: data, r: r}
}

// NewSamplers creates one sampler per dataset in a single slab:
// samplers[i] draws from data[i] with streams[i], which must outlive it.
func NewSamplers(data []*Dataset, streams []rng.RNG) []Sampler {
	out := make([]Sampler, len(data))
	for i := range out {
		out[i] = Sampler{data: data[i], r: &streams[i]}
	}
	return out
}

// Stream exposes the sampler's random stream so checkpointing code can
// capture and restore its cursor.
func (s *Sampler) Stream() *rng.RNG { return s.r }

// Batch fills x and y with a uniformly sampled mini-batch of size
// len(y). When the dataset is smaller than the batch, samples repeat.
// The indices are drawn into y and gathered in place, so a batch
// allocates nothing.
func (s *Sampler) Batch(x []float64, y []int) {
	n := s.data.Len()
	if n == 0 {
		panic("dataset: sampling from an empty dataset")
	}
	for i := range y {
		y[i] = s.r.IntN(n)
	}
	s.data.Gather(y, x, y)
}
