// Package partition splits a dataset across federated clients under the
// non-IID regimes used by the paper: IID, Dirichlet label skew Dir(φ), the
// synthetic label-diversity groups of Table II (Group A holds 10% of the
// labels, B 20%, C 50%), natural grouping (LEAF-style speakers), and
// quantity skew.
package partition

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// Partition assigns every sample index of a dataset to exactly one client.
type Partition struct {
	// Indices[i] lists the dataset sample indices owned by client i.
	Indices [][]int
}

// NumClients returns the number of clients.
func (p *Partition) NumClients() int { return len(p.Indices) }

// Sizes returns the per-client sample counts.
func (p *Partition) Sizes() []int {
	sizes := make([]int, len(p.Indices))
	for i, idx := range p.Indices {
		sizes[i] = len(idx)
	}
	return sizes
}

// Shards materializes one sub-dataset per client.
func (p *Partition) Shards(d *dataset.Dataset) []*dataset.Dataset {
	shards := make([]*dataset.Dataset, len(p.Indices))
	for i, idx := range p.Indices {
		shards[i] = d.Subset(idx)
	}
	return shards
}

// Validate checks that the partition covers the dataset exactly once and
// that every client owns at least one sample.
func (p *Partition) Validate(datasetLen int) error {
	seen := make([]bool, datasetLen)
	total := 0
	for i, idx := range p.Indices {
		if len(idx) == 0 {
			return fmt.Errorf("partition: client %d has no samples", i)
		}
		for _, s := range idx {
			if s < 0 || s >= datasetLen {
				return fmt.Errorf("partition: client %d references sample %d outside [0,%d)", i, s, datasetLen)
			}
			if seen[s] {
				return fmt.Errorf("partition: sample %d assigned twice", s)
			}
			seen[s] = true
			total++
		}
	}
	if total != datasetLen {
		return fmt.Errorf("partition: covers %d of %d samples", total, datasetLen)
	}
	return nil
}

// IID splits the dataset uniformly at random into n near-equal shards.
func IID(d *dataset.Dataset, n int, r *rng.RNG) (*Partition, error) {
	if err := checkArgs(d, n); err != nil {
		return nil, err
	}
	perm := r.Perm(d.Len())
	p := &Partition{Indices: make([][]int, n)}
	for i, s := range perm {
		c := i % n
		p.Indices[c] = append(p.Indices[c], s)
	}
	return p, p.Validate(d.Len())
}

// Dirichlet produces label-skewed shards: for every class, the class's
// samples are distributed across clients according to a Dirichlet(φ) draw.
// Smaller φ gives stronger skew. Clients left empty (possible for tiny φ)
// receive one sample donated by the largest client.
//
// The partition is materialized in two passes over preallocated flat
// backing arrays — per-class buckets first, then exact-sized per-client
// shards — so building a partition costs a handful of allocations instead
// of O(classes·clients) append regrowth (BenchmarkDirichletPartition in
// this package's tests).
// The random draws (per-class shuffle, then Dirichlet weights, in class
// order) are identical to the original incremental construction, so
// partitions are bit-for-bit unchanged.
func Dirichlet(d *dataset.Dataset, n int, phi float64, r *rng.RNG) (*Partition, error) {
	if err := checkArgs(d, n); err != nil {
		return nil, err
	}
	if phi <= 0 {
		return nil, fmt.Errorf("partition: Dirichlet concentration %v must be positive", phi)
	}
	// Bucket the sample indices by class into one flat backing array.
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	classBacking := make([]int, len(d.Y))
	byClass := make([][]int, d.Classes)
	{
		off := 0
		for c, cnt := range counts {
			byClass[c] = classBacking[off : off : off+cnt]
			off += cnt
		}
	}
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}

	// Pass 1: draw each class's shuffle and Dirichlet weights, record the
	// per-class client boundaries, and accumulate per-client sizes.
	ends := make([]int, d.Classes*n)
	sizes := make([]int, n)
	weights := make([]float64, n)
	for ci, samples := range byClass {
		if len(samples) == 0 {
			continue
		}
		r.Shuffle(len(samples), func(a, b int) { samples[a], samples[b] = samples[b], samples[a] })
		r.DirichletInto(phi, weights)
		start := 0
		var cum float64
		for c := 0; c < n; c++ {
			cum += weights[c]
			end := int(cum*float64(len(samples)) + 0.5)
			if c == n-1 {
				end = len(samples)
			}
			if end < start {
				end = start
			}
			if end > len(samples) {
				end = len(samples)
			}
			ends[ci*n+c] = end
			sizes[c] += end - start
			start = end
		}
	}

	// Pass 2: copy each class segment into exact-sized per-client shards
	// over one flat backing array (capacity-limited sub-slices, so a
	// later donation append cannot stomp a neighbor).
	shardBacking := make([]int, len(d.Y))
	p := &Partition{Indices: make([][]int, n)}
	{
		off := 0
		for c, size := range sizes {
			p.Indices[c] = shardBacking[off : off : off+size]
			off += size
		}
	}
	for ci, samples := range byClass {
		if len(samples) == 0 {
			continue
		}
		start := 0
		for c := 0; c < n; c++ {
			end := ends[ci*n+c]
			if end > start {
				p.Indices[c] = append(p.Indices[c], samples[start:end]...)
			}
			start = end
		}
	}
	fillEmptyClients(p, r)
	return p, p.Validate(d.Len())
}

// GroupSpec configures the paper's synthetic label-diversity groups
// (Section IV-A): Counts[g] clients per group, each holding LabelFracs[g]
// of the label space.
type GroupSpec struct {
	Counts     []int
	LabelFracs []float64
}

// PaperGroups returns the Table II configuration for n clients: three
// near-equal groups holding 10%, 20%, and 50% of the labels.
func PaperGroups(n int) GroupSpec {
	a := n / 3
	b := n / 3
	c := n - a - b
	return GroupSpec{Counts: []int{a, b, c}, LabelFracs: []float64{0.1, 0.2, 0.5}}
}

// Groups partitions by synthetic label diversity. Each client draws a
// random subset of labels sized by its group's fraction (at least one);
// every sample is then assigned uniformly among the clients owning its
// label. The returned group slice gives each client's group id.
func Groups(d *dataset.Dataset, spec GroupSpec, r *rng.RNG) (*Partition, []int, error) {
	if len(spec.Counts) == 0 || len(spec.Counts) != len(spec.LabelFracs) {
		return nil, nil, fmt.Errorf("partition: group spec %+v malformed", spec)
	}
	n := 0
	for _, c := range spec.Counts {
		if c < 0 {
			return nil, nil, fmt.Errorf("partition: negative group count in %+v", spec)
		}
		n += c
	}
	if err := checkArgs(d, n); err != nil {
		return nil, nil, err
	}

	groupOf := make([]int, 0, n)
	for g, c := range spec.Counts {
		for j := 0; j < c; j++ {
			groupOf = append(groupOf, g)
		}
	}

	// Draw each client's label set.
	owned := make([][]int, n) // label -> owning clients, built below
	labelOwners := make([][]int, d.Classes)
	for i := 0; i < n; i++ {
		frac := spec.LabelFracs[groupOf[i]]
		k := int(frac*float64(d.Classes) + 0.5)
		if k < 1 {
			k = 1
		}
		if k > d.Classes {
			k = d.Classes
		}
		labels := r.SampleWithoutReplacement(d.Classes, k)
		owned[i] = labels
		for _, l := range labels {
			labelOwners[l] = append(labelOwners[l], i)
		}
	}
	// Guarantee every present label has at least one owner.
	for l := 0; l < d.Classes; l++ {
		if len(labelOwners[l]) == 0 {
			c := r.IntN(n)
			labelOwners[l] = append(labelOwners[l], c)
			owned[c] = append(owned[c], l)
		}
	}

	p := &Partition{Indices: make([][]int, n)}
	for i, y := range d.Y {
		owners := labelOwners[y]
		c := owners[r.IntN(len(owners))]
		p.Indices[c] = append(p.Indices[c], i)
	}
	fillEmptyClients(p, r)
	return p, groupOf, p.Validate(d.Len())
}

// ByNaturalGroups partitions a dataset carrying Groups metadata (for
// example Shakespeare speakers) by assigning whole groups to clients
// round-robin. It requires at least as many groups as clients.
func ByNaturalGroups(d *dataset.Dataset, n int, r *rng.RNG) (*Partition, error) {
	if err := checkArgs(d, n); err != nil {
		return nil, err
	}
	if d.Groups == nil {
		return nil, fmt.Errorf("partition: dataset %s has no natural groups", d.Name)
	}
	maxG := -1
	for _, g := range d.Groups {
		if g > maxG {
			maxG = g
		}
	}
	numGroups := maxG + 1
	if numGroups < n {
		return nil, fmt.Errorf("partition: %d natural groups for %d clients", numGroups, n)
	}
	assign := r.Perm(numGroups) // group -> shuffled position
	p := &Partition{Indices: make([][]int, n)}
	for i, g := range d.Groups {
		c := assign[g] % n
		p.Indices[c] = append(p.Indices[c], i)
	}
	fillEmptyClients(p, r)
	return p, p.Validate(d.Len())
}

// QuantitySkew gives clients IID data in unequal amounts following a
// Dirichlet(beta) share draw.
func QuantitySkew(d *dataset.Dataset, n int, beta float64, r *rng.RNG) (*Partition, error) {
	if err := checkArgs(d, n); err != nil {
		return nil, err
	}
	if beta <= 0 {
		return nil, fmt.Errorf("partition: QuantitySkew beta %v must be positive", beta)
	}
	perm := r.Perm(d.Len())
	weights := r.Dirichlet(beta, n)
	p := &Partition{Indices: make([][]int, n)}
	start := 0
	var cum float64
	for c := 0; c < n; c++ {
		cum += weights[c]
		end := int(cum*float64(len(perm)) + 0.5)
		if c == n-1 {
			end = len(perm)
		}
		if end > start {
			p.Indices[c] = append(p.Indices[c], perm[start:end]...)
		}
		start = end
	}
	fillEmptyClients(p, r)
	return p, p.Validate(d.Len())
}

func checkArgs(d *dataset.Dataset, n int) error {
	if n <= 0 {
		return fmt.Errorf("partition: client count %d must be positive", n)
	}
	if d.Len() < n {
		return fmt.Errorf("partition: dataset %s has %d samples for %d clients", d.Name, d.Len(), n)
	}
	return nil
}

// fillEmptyClients donates one sample from the largest client to each
// empty client so that every client can train.
func fillEmptyClients(p *Partition, _ *rng.RNG) {
	for c := range p.Indices {
		if len(p.Indices[c]) > 0 {
			continue
		}
		largest := 0
		for j := range p.Indices {
			if len(p.Indices[j]) > len(p.Indices[largest]) {
				largest = j
			}
		}
		if len(p.Indices[largest]) < 2 {
			continue // nothing to donate
		}
		last := len(p.Indices[largest]) - 1
		p.Indices[c] = append(p.Indices[c], p.Indices[largest][last])
		p.Indices[largest] = p.Indices[largest][:last]
	}
}
