package partition

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	train, _, err := dataset.Standard("mnist", dataset.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	return train
}

func TestIIDCoversEvenly(t *testing.T) {
	d := testData(t)
	p, err := IID(d, 20, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(d.Len()); err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	want := d.Len() / 20
	for c, s := range sizes {
		if s < want-1 || s > want+1 {
			t.Fatalf("client %d has %d samples, want ≈%d", c, s, want)
		}
	}
}

// labelEntropy measures the mean per-client label entropy; lower entropy
// means stronger label skew.
func labelEntropy(d *dataset.Dataset, p *Partition) float64 {
	var total float64
	for _, idx := range p.Indices {
		counts := make([]float64, d.Classes)
		for _, s := range idx {
			counts[d.Y[s]]++
		}
		var h float64
		for _, c := range counts {
			if c == 0 {
				continue
			}
			q := c / float64(len(idx))
			h -= q * math.Log(q)
		}
		total += h
	}
	return total / float64(len(p.Indices))
}

func TestDirichletSkewOrdering(t *testing.T) {
	d := testData(t)
	p01, err := Dirichlet(d, 20, 0.1, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	p5, err := Dirichlet(d, 20, 5, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	iid, err := IID(d, 20, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	h01 := labelEntropy(d, p01)
	h5 := labelEntropy(d, p5)
	hIID := labelEntropy(d, iid)
	if !(h01 < h5 && h5 <= hIID+0.05) {
		t.Fatalf("entropy ordering violated: Dir(0.1)=%v Dir(5)=%v IID=%v", h01, h5, hIID)
	}
}

func TestDirichletValidates(t *testing.T) {
	d := testData(t)
	for _, phi := range []float64{0.05, 0.2, 0.5, 1} {
		p, err := Dirichlet(d, 20, phi, rng.New(3))
		if err != nil {
			t.Fatalf("Dir(%v): %v", phi, err)
		}
		if err := p.Validate(d.Len()); err != nil {
			t.Fatalf("Dir(%v): %v", phi, err)
		}
	}
}

func TestDirichletRejectsBadPhi(t *testing.T) {
	d := testData(t)
	if _, err := Dirichlet(d, 20, 0, rng.New(1)); err == nil {
		t.Fatal("expected error for phi=0")
	}
}

func TestGroupsLabelDiversity(t *testing.T) {
	d := testData(t)
	spec := PaperGroups(20)
	p, groupOf, err := Groups(d, spec, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(d.Len()); err != nil {
		t.Fatal(err)
	}
	if len(groupOf) != 20 {
		t.Fatalf("groupOf has %d entries, want 20", len(groupOf))
	}
	// Mean distinct labels per client must rise across groups A < B < C.
	distinct := make([]float64, 3)
	counts := make([]float64, 3)
	for c, idx := range p.Indices {
		seen := map[int]bool{}
		for _, s := range idx {
			seen[d.Y[s]] = true
		}
		g := groupOf[c]
		distinct[g] += float64(len(seen))
		counts[g]++
	}
	for g := range distinct {
		distinct[g] /= counts[g]
	}
	if !(distinct[0] < distinct[1] && distinct[1] < distinct[2]) {
		t.Fatalf("label diversity not increasing across groups: %v", distinct)
	}
}

func TestPaperGroupsCounts(t *testing.T) {
	spec := PaperGroups(20)
	total := 0
	for _, c := range spec.Counts {
		total += c
	}
	if total != 20 {
		t.Fatalf("PaperGroups counts sum to %d, want 20", total)
	}
}

func TestByNaturalGroups(t *testing.T) {
	train, _, err := dataset.Standard("shakespeare", dataset.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ByNaturalGroups(train, 20, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(train.Len()); err != nil {
		t.Fatal(err)
	}
	// Every client's samples must come from a consistent speaker set
	// disjoint from other clients' speakers.
	speakerOwner := map[int]int{}
	for c, idx := range p.Indices {
		for _, s := range idx {
			sp := train.Groups[s]
			if owner, ok := speakerOwner[sp]; ok && owner != c {
				t.Fatalf("speaker %d split across clients %d and %d", sp, owner, c)
			}
			speakerOwner[sp] = c
		}
	}
}

func TestByNaturalGroupsRequiresGroups(t *testing.T) {
	d := testData(t)
	if _, err := ByNaturalGroups(d, 5, rng.New(1)); err == nil {
		t.Fatal("expected error for dataset without groups")
	}
}

func TestQuantitySkew(t *testing.T) {
	d := testData(t)
	p, err := QuantitySkew(d, 10, 0.5, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(d.Len()); err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	minSz, maxSz := sizes[0], sizes[0]
	for _, s := range sizes {
		minSz = min(minSz, s)
		maxSz = max(maxSz, s)
	}
	if maxSz < 2*minSz {
		t.Fatalf("quantity skew too weak: min %d max %d", minSz, maxSz)
	}
}

func TestShardsMatchIndices(t *testing.T) {
	d := testData(t)
	p, err := IID(d, 4, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	shards := p.Shards(d)
	for c, shard := range shards {
		if shard.Len() != len(p.Indices[c]) {
			t.Fatalf("shard %d length mismatch", c)
		}
		if err := shard.Validate(); err != nil {
			t.Fatalf("shard %d: %v", c, err)
		}
	}
}

func TestPartitionDeterminism(t *testing.T) {
	d := testData(t)
	a, err := Dirichlet(d, 10, 0.2, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dirichlet(d, 10, 0.2, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.Indices {
		if len(a.Indices[c]) != len(b.Indices[c]) {
			t.Fatal("partitions differ for identical seeds")
		}
		for j := range a.Indices[c] {
			if a.Indices[c][j] != b.Indices[c][j] {
				t.Fatal("partitions differ for identical seeds")
			}
		}
	}
}

func TestErrorCases(t *testing.T) {
	d := testData(t)
	if _, err := IID(d, 0, rng.New(1)); err == nil {
		t.Fatal("expected error for zero clients")
	}
	tiny := d.Subset([]int{0, 1})
	if _, err := IID(tiny, 5, rng.New(1)); err == nil {
		t.Fatal("expected error for more clients than samples")
	}
	if _, _, err := Groups(d, GroupSpec{Counts: []int{3}, LabelFracs: []float64{0.1, 0.2}}, rng.New(1)); err == nil {
		t.Fatal("expected error for malformed group spec")
	}
	if _, err := QuantitySkew(d, 5, 0, rng.New(1)); err == nil {
		t.Fatal("expected error for bad beta")
	}
}

// assertExactCover checks — independently of Partition.Validate — that a
// partition assigns every sample exactly once and leaves no client empty.
func assertExactCover(t *testing.T, p *Partition, datasetLen int) {
	t.Helper()
	seen := make([]int, datasetLen)
	for c, idx := range p.Indices {
		if len(idx) == 0 {
			t.Fatalf("client %d owns no samples", c)
		}
		for _, s := range idx {
			if s < 0 || s >= datasetLen {
				t.Fatalf("client %d references sample %d outside [0,%d)", c, s, datasetLen)
			}
			seen[s]++
		}
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("sample %d assigned %d times, want exactly once", s, n)
		}
	}
}

// TestDirichletProperty sweeps the Dirichlet partitioner over the client
// counts, concentrations, and datasets the experiments use (φ down to
// 0.1 at 100 clients is the harshest Table VII cell), asserting the
// exactly-once-coverage and no-empty-shard invariants for many seeds.
func TestDirichletProperty(t *testing.T) {
	datasets := []string{"mnist", "adult"}
	for _, dsName := range datasets {
		train, _, err := dataset.Standard(dsName, dataset.ScaleSmall, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{8, 20, 100} {
			for _, phi := range []float64{0.1, 0.2, 0.5, 5} {
				for seed := uint64(1); seed <= 5; seed++ {
					p, err := Dirichlet(train, n, phi, rng.New(seed))
					if err != nil {
						t.Fatalf("%s Dir(%v) n=%d seed=%d: %v", dsName, phi, n, seed, err)
					}
					assertExactCover(t, p, train.Len())
					if got := p.NumClients(); got != n {
						t.Fatalf("%s Dir(%v): %d clients, want %d", dsName, phi, got, n)
					}
				}
			}
		}
	}
}

// TestPartitionPropertyOtherKinds applies the same invariants to the
// remaining partition kinds at experiment sizes.
func TestPartitionPropertyOtherKinds(t *testing.T) {
	d := testData(t)
	for seed := uint64(1); seed <= 5; seed++ {
		p, err := IID(d, 20, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		assertExactCover(t, p, d.Len())

		p, _, err = Groups(d, PaperGroups(20), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		assertExactCover(t, p, d.Len())

		p, err = QuantitySkew(d, 10, 0.5, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		assertExactCover(t, p, d.Len())
	}
}

func TestValidateDetectsProblems(t *testing.T) {
	p := &Partition{Indices: [][]int{{0, 1}, {1}}}
	if err := p.Validate(3); err == nil {
		t.Fatal("expected duplicate detection")
	}
	p = &Partition{Indices: [][]int{{0}, {}}}
	if err := p.Validate(1); err == nil {
		t.Fatal("expected empty-client detection")
	}
	p = &Partition{Indices: [][]int{{0}, {5}}}
	if err := p.Validate(2); err == nil {
		t.Fatal("expected out-of-range detection")
	}
}

// BenchmarkDirichletPartition measures the non-IID partitioner.
func BenchmarkDirichletPartition(b *testing.B) {
	train, _, err := dataset.Standard("mnist", dataset.ScaleSmall, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Dirichlet(train, 20, 0.2, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
