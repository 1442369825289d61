package fl

import (
	"math"
	"strings"
	"testing"

	"repro/internal/adversary"
)

// advSpec builds one always-on spec of the given kind over 1/3 of the
// clients, with a representative magnitude.
func advSpec(kind adversary.Kind) adversary.Spec {
	s := adversary.Spec{Kind: kind, Frac: 1.0 / 3}
	switch kind {
	case adversary.KindScale, adversary.KindSybil:
		s.Scale = 2
	case adversary.KindDeltaNoise:
		s.Scale = 1
	case adversary.KindLabelNoise:
		s.Scale = 0.8
	}
	return s
}

// TestEmptyAdversaryListIsHonestRun: declaring an empty (or nil-member)
// corruption config is the honest run, bit-identical to a config without
// the field, while an always-on attack changes the trajectory.
func TestEmptyAdversaryListIsHonestRun(t *testing.T) {
	net, shards, test := goldenSetup(t, 6, 4)
	cfg := Config{Rounds: 4, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 11}
	clean, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adversaries = []adversary.Spec{}
	empty, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if ch, eh := paramsHash(clean.FinalParams), paramsHash(empty.FinalParams); ch != eh {
		t.Fatalf("empty adversary list changed the run: %016x vs %016x", ch, eh)
	}
	if empty.CumWeights != nil {
		t.Fatal("adversary-free run must not track cumulative weights")
	}
	cfg.Adversaries = []adversary.Spec{{Kind: adversary.KindSignFlip, Frac: 0.5}}
	flipped, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if paramsHash(flipped.FinalParams) == paramsHash(clean.FinalParams) {
		t.Fatal("always-on sign flip did not change the trajectory")
	}
}

// TestAdversaryDeterminism pins P=1-vs-P=8 bit-identity for every
// injector kind × 2 seeds: corruption streams are per-client, so the
// slot multiplexing must stay invisible.
func TestAdversaryDeterminism(t *testing.T) {
	net, shards, test := goldenSetup(t, 6, 4)
	for _, kind := range adversary.Kinds() {
		for _, seed := range []uint64{11, 23} {
			t.Run(string(kind)+"/seed"+string(rune('0'+seed%10)), func(t *testing.T) {
				cfg := Config{
					Rounds: 4, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05,
					Seed:        seed,
					Adversaries: []adversary.Spec{advSpec(kind)},
				}
				cfgA := cfg
				cfgA.Parallelism = 1
				cfgB := cfg
				cfgB.Parallelism = 8
				resA, err := Run(cfgA, goldenFedAvg{}, net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				resB, err := Run(cfgB, goldenFedAvg{}, net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				if ha, hb := paramsHash(resA.FinalParams), paramsHash(resB.FinalParams); ha != hb {
					t.Fatalf("%s seed %d: params differ across parallelism: %016x vs %016x", kind, seed, ha, hb)
				}
				for i := range resA.Run.Rounds {
					a, b := resA.Run.Rounds[i], resB.Run.Rounds[i]
					if a.CorruptWeight != b.CorruptWeight || a.HonestWeight != b.HonestWeight {
						t.Fatalf("%s seed %d round %d: weight mass differs across parallelism", kind, seed, i)
					}
				}
			})
		}
	}
}

// TestAdversaryErrorDeterministic is the map-order regression for the old
// freeloader setup, which iterated a map to validate IDs and so reported
// a random invalid ID. Members iterate sorted, so the smallest offender
// is reported every time.
func TestAdversaryErrorDeterministic(t *testing.T) {
	net, shards, test := goldenSetup(t, 6, 4)
	cfg := Config{Rounds: 2, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 1}
	cfg.Adversaries = []adversary.Spec{adversary.Freeloaders([]int{99, 98, 97})}
	var first string
	for i := 0; i < 10; i++ {
		_, err := Run(cfg, goldenFedAvg{}, net, shards, test)
		if err == nil {
			t.Fatal("out-of-range freeloader ids must error")
		}
		if !strings.Contains(err.Error(), "97") {
			t.Fatalf("error must name the smallest invalid id 97: %v", err)
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("validation error not deterministic:\n%q\n%q", first, err.Error())
		}
	}
}

// captureAlg records the per-round uploads of watched clients.
type captureAlg struct {
	goldenFedAvg
	watch  []int
	deltas map[int][][]float64 // round -> one copy per watched client
}

func (a *captureAlg) Aggregate(s *ServerCtx, updates []Update) {
	if a.deltas == nil {
		a.deltas = make(map[int][][]float64)
	}
	for _, u := range updates {
		for _, id := range a.watch {
			if u.Client == id {
				cp := make([]float64, len(u.Delta))
				copy(cp, u.Delta)
				a.deltas[s.Round] = append(a.deltas[s.Round], cp)
			}
		}
	}
	a.goldenFedAvg.Aggregate(s, updates)
}

// TestSybilUploadsExactlyShared: every member of the colluding set
// uploads the identical delta each round (zeros in round 0).
func TestSybilUploadsExactlyShared(t *testing.T) {
	net, shards, test := goldenSetup(t, 6, 4)
	members := []int{1, 3, 5}
	cfg := Config{
		Rounds: 3, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 7,
		Adversaries: []adversary.Spec{{Kind: adversary.KindSybil, Clients: members, Scale: 2}},
	}
	alg := &captureAlg{watch: members}
	if _, err := Run(cfg, alg, net, shards, test); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < cfg.Rounds; round++ {
		got := alg.deltas[round]
		if len(got) != len(members) {
			t.Fatalf("round %d captured %d sybil uploads, want %d", round, len(got), len(members))
		}
		for m := 1; m < len(got); m++ {
			for i := range got[0] {
				if got[m][i] != got[0][i] {
					t.Fatalf("round %d: sybil uploads differ at coordinate %d", round, i)
				}
			}
		}
		if round == 0 {
			for _, v := range got[0] {
				if v != 0 {
					t.Fatal("round-0 sybil upload must be zero")
				}
			}
		} else {
			allZero := true
			for _, v := range got[0] {
				if v != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("round %d sybil upload is zero — fabrication did not run", round)
			}
		}
	}
}

// TestWeightMassRecorded: under uniform aggregation the corrupt mass is
// exactly the corrupt head-count share, the split sums to one, and the
// per-client cumulative weights match.
func TestWeightMassRecorded(t *testing.T) {
	net, shards, test := goldenSetup(t, 6, 4)
	cfg := Config{
		Rounds: 3, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 5,
		Adversaries: []adversary.Spec{{Kind: adversary.KindSignFlip, Clients: []int{0, 4}}},
	}
	res, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Run.Rounds {
		if math.Abs(rec.HonestWeight+rec.CorruptWeight-1) > 1e-12 {
			t.Fatalf("round %d: weight masses sum to %v", i, rec.HonestWeight+rec.CorruptWeight)
		}
		if want := 2.0 / 6; math.Abs(rec.CorruptWeight-want) > 1e-12 {
			t.Fatalf("round %d: corrupt mass %v, want uniform share %v", i, rec.CorruptWeight, want)
		}
	}
	if res.CumWeights == nil {
		t.Fatal("adversarial run must track cumulative weights")
	}
	var total float64
	for _, w := range res.CumWeights {
		total += w
	}
	if math.Abs(total-float64(cfg.Rounds)) > 1e-9 {
		t.Fatalf("cumulative weights sum to %v, want %d", total, cfg.Rounds)
	}
	if got := res.Run.MeanCorruptWeight(); math.Abs(got-2.0/6) > 1e-12 {
		t.Fatalf("MeanCorruptWeight = %v", got)
	}
}

// TestDataAttackChangesOnlyLabels: a label attack leaves the client's
// clean shard untouched (other runs reuse it) and still trains.
func TestDataAttackChangesOnlyLabels(t *testing.T) {
	net, shards, test := goldenSetup(t, 6, 4)
	origY := append([]int(nil), shards[0].Y...)
	cfg := Config{
		Rounds: 3, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 5,
		Adversaries: []adversary.Spec{{Kind: adversary.KindLabelFlip, Clients: []int{0}}},
	}
	res, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range shards[0].Y {
		if y != origY[i] {
			t.Fatal("label attack mutated the clean shard")
		}
	}
	// The attacker trains (on poisoned labels), so it reports a loss and
	// counts as honest for the timing metrics.
	last := res.Run.Rounds[len(res.Run.Rounds)-1]
	if math.IsNaN(last.TrainLoss) || last.TrainLoss <= 0 {
		t.Fatalf("train loss %v with a label attacker", last.TrainLoss)
	}
}

// TestFabricatorConflict: stacking two fabricators on one client is a
// setup error; a fabricator stacks fine with update-level injectors.
func TestFabricatorConflict(t *testing.T) {
	net, shards, test := goldenSetup(t, 6, 4)
	cfg := Config{Rounds: 2, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 1}
	cfg.Adversaries = []adversary.Spec{
		{Kind: adversary.KindFreeloader, Clients: []int{2}},
		{Kind: adversary.KindSybil, Clients: []int{2, 3}},
	}
	if _, err := Run(cfg, goldenFedAvg{}, net, shards, test); err == nil {
		t.Fatal("two fabricators on one client must error")
	}
	cfg.Adversaries = []adversary.Spec{
		{Kind: adversary.KindSignFlip, Clients: []int{2}},
		{Kind: adversary.KindScale, Clients: []int{2}, Scale: 2},
		{Kind: adversary.KindLabelFlip, Clients: []int{2}},
	}
	if _, err := Run(cfg, goldenFedAvg{}, net, shards, test); err != nil {
		t.Fatalf("composed injector stack rejected: %v", err)
	}
}
