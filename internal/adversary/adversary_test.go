package adversary

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
)

func randDelta(seed uint64, n int) []float64 {
	r := rng.New(seed)
	d := make([]float64, n)
	for i := range d {
		d[i] = r.Normal(0, 1)
	}
	return d
}

func testShard(t *testing.T, seed uint64) *dataset.Dataset {
	t.Helper()
	r := rng.New(seed)
	d := &dataset.Dataset{
		Name:    "toy",
		In:      nn.Vec(3),
		Classes: 5,
		X:       make([]float64, 40*3),
		Y:       make([]int, 40),
	}
	for i := range d.X {
		d.X[i] = r.Normal(0, 1)
	}
	for i := range d.Y {
		d.Y[i] = r.IntN(d.Classes)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSignFlipInvolution pins SignFlip∘SignFlip = identity bit-exactly.
func TestSignFlipInvolution(t *testing.T) {
	d := randDelta(3, 257)
	orig := append([]float64(nil), d...)
	var b SignFlip
	b.CorruptDelta(d, &Ctx{})
	for i := range d {
		if d[i] != -orig[i] {
			t.Fatalf("sign flip at %d: %v vs %v", i, d[i], orig[i])
		}
	}
	b.CorruptDelta(d, &Ctx{})
	for i := range d {
		if d[i] != orig[i] {
			t.Fatalf("double sign flip not identity at %d: %v vs %v", i, d[i], orig[i])
		}
	}
}

// TestScaleAttackIdentity pins ScaleAttack(1.0) as a bit-exact no-op.
func TestScaleAttackIdentity(t *testing.T) {
	d := randDelta(5, 129)
	orig := append([]float64(nil), d...)
	(ScaleAttack{Factor: 1}).CorruptDelta(d, &Ctx{})
	for i := range d {
		if d[i] != orig[i] {
			t.Fatalf("ScaleAttack(1.0) changed element %d", i)
		}
	}
	(ScaleAttack{Factor: 3}).CorruptDelta(d, &Ctx{})
	for i := range d {
		if d[i] != 3*orig[i] {
			t.Fatalf("ScaleAttack(3) at %d: %v, want %v", i, d[i], 3*orig[i])
		}
	}
}

// TestLabelFlipPreservesShardShape: size, label domain, and shared
// features are preserved; flipping twice restores the labels.
func TestLabelFlipPreservesShardShape(t *testing.T) {
	shard := testShard(t, 7)
	var b LabelFlip
	flipped := b.CorruptData(shard, rng.New(1))
	if flipped.Len() != shard.Len() {
		t.Fatalf("shard size changed: %d -> %d", shard.Len(), flipped.Len())
	}
	if err := flipped.Validate(); err != nil {
		t.Fatalf("flipped shard invalid (label domain): %v", err)
	}
	if &flipped.X[0] != &shard.X[0] {
		t.Fatal("label flip must share the feature array")
	}
	changed := 0
	for i := range shard.Y {
		if flipped.Y[i] != shard.Y[i] {
			changed++
		}
		if flipped.Y[i] != shard.Classes-1-shard.Y[i] {
			t.Fatalf("label %d not flipped: %d -> %d", i, shard.Y[i], flipped.Y[i])
		}
	}
	if changed == 0 {
		t.Fatal("label flip changed nothing")
	}
	twice := b.CorruptData(flipped, rng.New(1))
	for i := range shard.Y {
		if twice.Y[i] != shard.Y[i] {
			t.Fatal("double label flip must restore the labels")
		}
	}
}

func TestLabelNoise(t *testing.T) {
	shard := testShard(t, 9)
	zero := LabelNoise{Rate: 0}.CorruptData(shard, rng.New(2))
	for i := range shard.Y {
		if zero.Y[i] != shard.Y[i] {
			t.Fatal("rate-0 label noise must be a no-op")
		}
	}
	full := LabelNoise{Rate: 1}.CorruptData(shard, rng.New(2))
	if err := full.Validate(); err != nil {
		t.Fatalf("noisy shard invalid: %v", err)
	}
	if full.Len() != shard.Len() {
		t.Fatal("label noise changed the shard size")
	}
	// Determinism: the same stream produces the same corruption.
	again := LabelNoise{Rate: 1}.CorruptData(shard, rng.New(2))
	for i := range full.Y {
		if full.Y[i] != again.Y[i] {
			t.Fatal("label noise not deterministic for a fixed stream")
		}
	}
}

// TestSybilSharedDelta: colluding clients fabricate bit-identical deltas
// from the same dispatch state, and round 0 uploads zeros.
func TestSybilSharedDelta(t *testing.T) {
	global := randDelta(11, 64)
	prev := randDelta(13, 64)
	b := Sybil{Amplify: 2}
	mk := func(client int) []float64 {
		d := make([]float64, 64)
		b.Fabricate(d, &Ctx{Client: client, Round: 3, Global: global, PrevGlobal: prev, ReplayScale: 0.5})
		return d
	}
	a, c := mk(1), mk(17)
	anyNonZero := false
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("sybil deltas differ at %d: %v vs %v", i, a[i], c[i])
		}
		if a[i] != 0 {
			anyNonZero = true
		}
		if want := -2 * 0.5 * (prev[i] - global[i]); a[i] != want {
			t.Fatalf("sybil delta at %d: %v, want %v", i, a[i], want)
		}
	}
	if !anyNonZero {
		t.Fatal("sybil delta all zero past round 0")
	}
	d := make([]float64, 64)
	d[5] = 99
	b.Fabricate(d, &Ctx{Round: 0, Global: global, PrevGlobal: prev, ReplayScale: 0.5})
	for i := range d {
		if d[i] != 0 {
			t.Fatal("round-0 sybil upload must be zero")
		}
	}
}

// TestFreeloaderReplay pins the Section IV-A replay arithmetic.
func TestFreeloaderReplay(t *testing.T) {
	global := randDelta(17, 32)
	prev := randDelta(19, 32)
	d := make([]float64, 32)
	(Freeloader{}).Fabricate(d, &Ctx{Round: 2, Global: global, PrevGlobal: prev, ReplayScale: 0.25})
	for i := range d {
		if want := 0.25 * (prev[i] - global[i]); d[i] != want {
			t.Fatalf("replay at %d: %v, want %v", i, d[i], want)
		}
	}
}

func TestDeltaNoise(t *testing.T) {
	d := randDelta(23, 512)
	orig := append([]float64(nil), d...)
	ctx := &Ctx{RNG: rng.New(5)}
	DeltaNoise{Sigma: 1}.CorruptDelta(d, ctx)
	changed := 0
	for i := range d {
		if d[i] != orig[i] {
			changed++
		}
	}
	if changed < 500 {
		t.Fatalf("delta noise changed only %d/512 coordinates", changed)
	}
	// A zero delta carries no magnitude to scale the noise by: no-op.
	z := make([]float64, 16)
	DeltaNoise{Sigma: 1}.CorruptDelta(z, ctx)
	for i := range z {
		if z[i] != 0 {
			t.Fatal("noise on a zero delta must stay zero")
		}
	}
}

func TestMembers(t *testing.T) {
	s := Spec{Kind: KindSignFlip, Frac: 0.3}
	ids := s.Members(20)
	if len(ids) != 6 {
		t.Fatalf("0.3 of 20 -> %d members, want 6", len(ids))
	}
	seen := map[int]bool{}
	for i, id := range ids {
		if id < 0 || id >= 20 {
			t.Fatalf("member %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("duplicate member %d", id)
		}
		seen[id] = true
		if i > 0 && ids[i-1] >= id {
			t.Fatal("members not sorted ascending")
		}
	}
	// Tiny fractions still corrupt at least one client.
	if got := (Spec{Kind: KindSignFlip, Frac: 0.001}).Members(20); len(got) != 1 {
		t.Fatalf("tiny fraction -> %v, want one member", got)
	}
	// Explicit lists come back sorted without mutating the spec.
	e := Spec{Kind: KindSignFlip, Clients: []int{5, 1, 3}}
	if got := e.Members(20); got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("explicit members = %v", got)
	}
	if e.Clients[0] != 5 {
		t.Fatal("Members must not mutate the spec's client list")
	}
	if got := (Spec{Kind: KindSignFlip, Frac: 1}).Members(7); len(got) != 7 {
		t.Fatalf("frac 1 -> %v, want all 7", got)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: "nope", Frac: 0.5},
		{Kind: KindSignFlip},                               // selects nobody
		{Kind: KindSignFlip, Frac: 1.5},                    // fraction out of range
		{Kind: KindSignFlip, Frac: -0.1},                   //
		{Kind: KindSignFlip, Frac: math.NaN()},             //
		{Kind: KindSignFlip, Clients: []int{1}, Frac: 0.5}, // both selectors
		{Kind: KindSignFlip, Clients: []int{-1}},           // negative id
		{Kind: KindSignFlip, Clients: []int{2, 2}},         // duplicate id
		{Kind: KindScale, Frac: 0.5, Scale: math.Inf(1)},   // non-finite scale
		{Kind: KindScale, Frac: 0.5, Scale: -1},            // negative scale
		{Kind: KindLabelNoise, Frac: 0.5, Scale: 1.5},      // rate above 1
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %+v passed validation", s)
		}
	}
	good := []Spec{
		{Kind: KindSignFlip, Frac: 0.5},
		{Kind: KindSybil, Clients: []int{0, 4, 9}, Scale: 2},
		{Kind: KindFreeloader, Frac: 0.4},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %+v rejected: %v", s, err)
		}
	}
}

func TestBehaviorCompilation(t *testing.T) {
	for _, k := range Kinds() {
		s := Spec{Kind: k, Frac: 0.5}
		b := s.Behavior()
		if b == nil {
			t.Fatalf("kind %s compiles to nil", k)
		}
		if b.Name() != string(k) {
			t.Fatalf("kind %s behavior named %q", k, b.Name())
		}
		n := 0
		if _, ok := b.(DataCorruptor); ok {
			n++
		}
		if _, ok := b.(DeltaCorruptor); ok {
			n++
		}
		if _, ok := b.(Fabricator); ok {
			n++
		}
		if n != 1 {
			t.Fatalf("kind %s implements %d capability interfaces, want exactly 1", k, n)
		}
	}
	// Scale defaults are applied at compilation.
	if b := (Spec{Kind: KindScale, Frac: 0.5}).Behavior().(ScaleAttack); b.Factor != 5 {
		t.Fatalf("default scale factor %v, want 5", b.Factor)
	}
	if b := (Spec{Kind: KindLabelNoise, Frac: 0.5}).Behavior().(LabelNoise); b.Rate != 0.5 {
		t.Fatalf("default noise rate %v, want 0.5", b.Rate)
	}
}

func TestParseAttack(t *testing.T) {
	cases := []struct {
		in    string
		kind  Kind
		frac  float64
		scale float64
	}{
		{"signflip", KindSignFlip, 0.25, 0},
		{"scale:0.3", KindScale, 0.3, 0},
		{"sybil:0.25:2", KindSybil, 0.25, 2},
		{" labelflip : 0.5 ", KindLabelFlip, 0.5, 0},
	}
	for _, tc := range cases {
		spec, err := ParseAttack(tc.in)
		if err != nil {
			t.Fatalf("ParseAttack(%q): %v", tc.in, err)
		}
		if spec.Kind != tc.kind || spec.Frac != tc.frac || spec.Scale != tc.scale {
			t.Fatalf("ParseAttack(%q) = %+v", tc.in, spec)
		}
	}
	for _, bad := range []string{"", "nope", "signflip:x", "signflip:0.5:y", "signflip:0.5:1:2", "signflip:2", "signflip:0.3:2", "freeload:0.3:7"} {
		if _, err := ParseAttack(bad); err == nil {
			t.Fatalf("ParseAttack(%q) succeeded", bad)
		}
	}
}

// FuzzParseAttack: the parser never panics, and anything it accepts is a
// valid spec.
func FuzzParseAttack(f *testing.F) {
	for _, seed := range []string{"signflip", "scale:0.3", "sybil:0.25:2", "freeload:1", "x:y:z", ":::", "labelnoise:0.5:0.9"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseAttack(s)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseAttack(%q) returned invalid spec %+v: %v", s, spec, verr)
		}
		if got := spec.Behavior(); got == nil {
			t.Fatalf("ParseAttack(%q) spec compiles to nil behavior", s)
		}
	})
}

// TestFreeloaders pins the helper the CLI, the freeload experiments and
// the example build their leading spec with: ids sorted and deduplicated
// without touching the caller's slice, a negative id rejected by Validate,
// and out-of-range ids resolved smallest-first so setup reports the
// smallest offender.
func TestFreeloaders(t *testing.T) {
	ids := []int{3, 1, 3}
	s := Freeloaders(ids)
	if s.Kind != KindFreeloader || len(s.Clients) != 2 || s.Clients[0] != 1 || s.Clients[1] != 3 {
		t.Fatalf("Freeloaders(%v) = %+v, want freeloader spec over [1 3]", ids, s)
	}
	if ids[0] != 3 || ids[1] != 1 || ids[2] != 3 {
		t.Fatalf("caller's ids mutated: %v", ids)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid helper spec rejected: %v", err)
	}
	if err := Freeloaders([]int{4, -1}).Validate(); err == nil || !strings.Contains(err.Error(), "-1") {
		t.Fatalf("negative id: err = %v, want one naming -1", err)
	}
	if m := Freeloaders([]int{99, 98, 97}).Members(6); len(m) != 3 || m[0] != 97 {
		t.Fatalf("members = %v, want ascending from 97", m)
	}
}
