package spec_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/wire/chaos"
)

// entry erases an entry point's result type so one table can drive all
// eight.
func entry[T any](parse func(string) (T, error)) func(string) (any, error) {
	return func(s string) (any, error) { return parse(s) }
}

// parsers are the eight entry points that read the grammar.
var parsers = map[string]func(string) (any, error){
	"ParseFault":     entry(fault.ParseFault),
	"ParseFaults":    entry(fault.ParseFaults),
	"ParseAttack":    entry(adversary.ParseAttack),
	"chaos.Parse":    entry(chaos.Parse),
	"ParseList":      entry(chaos.ParseList),
	"ParseSpec":      entry(compress.ParseSpec),
	"ParseStack":     entry(aggstack.ParseStack),
	"ParseServerOpt": entry(aggstack.ParseServerOpt),
}

// TestGrammar pins the one syntax every entry point shares — trimming,
// empty fields and entries, blank strings, per-kind arity — and, by exact
// struct, every spec string the tree passes today, so moving the parsers
// onto the tokenizer changed the meaning of none of them. A nil want
// marks an input that must be rejected.
func TestGrammar(t *testing.T) {
	zc := aggstack.StackSpec{Stages: []aggstack.StageSpec{{Kind: aggstack.StageZeroing}, {Kind: aggstack.StageClipping}}}
	slow := fault.Spec{Kind: fault.KindSlow, Frac: 0.3, Param: 4}
	crash := func(frac float64) fault.Spec { return fault.Spec{Kind: fault.KindCrash, Frac: frac} }
	cases := []struct {
		parser, in string
		want       any
	}{
		// Every field is trimmed.
		{"ParseFault", " slow : 0.3 : 8 ", fault.Spec{Kind: fault.KindSlow, Frac: 0.3, Param: 8}},
		{"ParseFaults", " crash : 0.2 , drop ", []fault.Spec{crash(0.2), {Kind: fault.KindDrop, Frac: 0.25}}},
		{"ParseAttack", " labelflip : 0.5 ", adversary.Spec{Kind: adversary.KindLabelFlip, Frac: 0.5}},
		{"chaos.Parse", " slow : 0.3 : 0.05 ", chaos.Spec{Kind: chaos.KindSlow, Frac: 0.3, Param: 0.05}},
		{"ParseList", "reset:0.01, slow:0.2:0.01", []chaos.Spec{{Kind: chaos.KindReset, Frac: 0.01}, {Kind: chaos.KindSlow, Frac: 0.2, Param: 0.01}}},
		{"ParseSpec", " topk: 0.1 ", compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.1}},
		{"ParseStack", " clip: 5 | zeroing ", aggstack.StackSpec{Stages: []aggstack.StageSpec{{Kind: aggstack.StageClipping, Norm: 5}, {Kind: aggstack.StageZeroing}}}},
		{"ParseServerOpt", "adam: 0.1", aggstack.OptSpec{Kind: aggstack.OptAdam, LR: 0.1}},

		// An empty field is an error: leaving an argument out is spelled
		// by leaving its ":" out too.
		{"ParseFault", "crash:", nil},
		{"ParseFault", "slow::8", nil},
		{"ParseFault", "servercrash: ", nil},
		{"ParseFaults", "crash:0.2,dup:", nil},
		{"ParseAttack", "scale::2", nil},
		{"chaos.Parse", "slow:0.3:", nil},
		{"ParseList", "reset:,slow", nil},
		{"ParseSpec", "topk:", nil},
		{"ParseStack", "zeroing|clip:", nil},
		{"ParseServerOpt", "adam:", nil},
		{"ParseFault", ":0.2", nil},

		// An empty entry inside a non-blank list is an error.
		{"ParseFaults", "crash,,drop", nil},
		{"ParseFaults", "crash,", nil},
		{"ParseList", "reset:0.1,,slow", nil},
		{"ParseList", ",reset", nil},
		{"ParseList", " , ", nil},
		{"ParseStack", "zeroing||clip", nil},
		{"ParseStack", "|", nil},

		// A wholly blank string is none, the empty list or the empty
		// stack; where one spec is required it is an error.
		{"ParseFaults", " \t", []fault.Spec(nil)},
		{"ParseList", "", []chaos.Spec(nil)},
		{"ParseSpec", "", compress.Spec{}},
		{"ParseSpec", "  ", compress.Spec{}},
		{"ParseSpec", "none", compress.Spec{}},
		{"ParseStack", " ", aggstack.StackSpec{}},
		{"ParseStack", "none", aggstack.StackSpec{}},
		{"ParseServerOpt", "", aggstack.OptSpec{}},
		{"ParseServerOpt", " none ", aggstack.OptSpec{}},
		{"ParseFault", " ", nil},
		{"ParseAttack", "", nil},
		{"chaos.Parse", "", nil},

		// An argument a kind does not take is an error, not ignored.
		{"ParseFault", "crash:0.2:9", nil},
		{"ParseFault", "servercrash:1:2", nil},
		{"ParseFaults", "drop:0.1:3", nil},
		{"ParseAttack", "signflip:0.3:2", nil},
		{"ParseAttack", "freeload:0.3:7", nil},
		{"ParseAttack", "sybil:0.25:2:1", nil},
		{"chaos.Parse", "reset:0.1:2", nil},
		{"ParseList", "slow:0.1:1,truncate:0.1:1", nil},
		{"ParseSpec", "none:1", nil},
		{"ParseSpec", "int8:256:2", nil},
		{"ParseStack", "clip:5:1", nil},
		{"ParseServerOpt", "adam:0.1:2", nil},
		{"ParseServerOpt", "none:5", nil},

		// Every spec string the tree passes today. bench/workloads.go:
		{"ParseFaults", "crash:0.1,drop:0.1,dup:0.05", []fault.Spec{crash(0.1), {Kind: fault.KindDrop, Frac: 0.1}, {Kind: fault.KindDup, Frac: 0.05}}},
		{"ParseSpec", "int8", compress.Spec{Kind: compress.KindInt8}},
		{"ParseSpec", "topk:0.05", compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.05}},
		{"ParseStack", "zeroing|clip", zc},
		{"ParseServerOpt", "adam:0.001", aggstack.OptSpec{Kind: aggstack.OptAdam, LR: 0.001}},
		{"ParseAttack", "signflip:0.1", adversary.Spec{Kind: adversary.KindSignFlip, Frac: 0.1}},
		// internal/experiments/scenarios.go:
		{"ParseFaults", "crash:0.2", []fault.Spec{crash(0.2)}},
		{"ParseFaults", "drop:0.2", []fault.Spec{{Kind: fault.KindDrop, Frac: 0.2}}},
		{"ParseFaults", "slow:0.3:4", []fault.Spec{slow}},
		{"ParseFaults", "crash:0.2,drop:0.2", []fault.Spec{crash(0.2), {Kind: fault.KindDrop, Frac: 0.2}}},
		{"ParseServerOpt", "adam:0.1", aggstack.OptSpec{Kind: aggstack.OptAdam, LR: 0.1}},
		// CI's chaos and wire jobs:
		{"ParseList", "reset:0.05,slow:0.2:0.02", []chaos.Spec{{Kind: chaos.KindReset, Frac: 0.05}, {Kind: chaos.KindSlow, Frac: 0.2, Param: 0.02}}},
		{"ParseSpec", "topk:0.25", compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.25}},
		// The commands in README.md, the quickstart, DESIGN.md and the
		// command doc comments:
		{"ParseSpec", "topk:0.01", compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.01}},
		{"ParseSpec", "topk", compress.Spec{Kind: compress.KindTopK}},
		{"ParseFaults", "crash:0.2,slow:0.3:4", []fault.Spec{crash(0.2), slow}},
		{"ParseFaults", "servercrash:10", []fault.Spec{{Kind: fault.KindServerCrash, Round: 10}}},
		{"ParseFaults", "servercrash:5", []fault.Spec{{Kind: fault.KindServerCrash, Round: 5}}},
		{"ParseAttack", "signflip:0.3", adversary.Spec{Kind: adversary.KindSignFlip, Frac: 0.3}},
		{"ParseAttack", "sybil:0.25:2", adversary.Spec{Kind: adversary.KindSybil, Frac: 0.25, Scale: 2}},
		{"ParseAttack", "scale:0.25:20", adversary.Spec{Kind: adversary.KindScale, Frac: 0.25, Scale: 20}},
		{"ParseServerOpt", "adam", aggstack.OptSpec{Kind: aggstack.OptAdam}},
		{"ParseServerOpt", "yogi:0.05", aggstack.OptSpec{Kind: aggstack.OptYogi, LR: 0.05}},
		{"ParseList", "reset:0.01,slow:0.3:0.02", []chaos.Spec{{Kind: chaos.KindReset, Frac: 0.01}, {Kind: chaos.KindSlow, Frac: 0.3, Param: 0.02}}},
		// The in-tree tests' mixes:
		{"ParseFaults", "crash:0.2,drop:0.15,dup:0.2,slow:0.3:3", []fault.Spec{crash(0.2), {Kind: fault.KindDrop, Frac: 0.15}, {Kind: fault.KindDup, Frac: 0.2}, {Kind: fault.KindSlow, Frac: 0.3, Param: 3}}},
		{"ParseServerOpt", "yogi:0.1", aggstack.OptSpec{Kind: aggstack.OptYogi, LR: 0.1}},
		{"ParseServerOpt", "adam:0.01", aggstack.OptSpec{Kind: aggstack.OptAdam, LR: 0.01}},
	}
	for _, c := range cases {
		got, err := parsers[c.parser](c.in)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%s(%q) = %+v, want an error", c.parser, c.in, got)
		case c.want != nil && err != nil:
			t.Errorf("%s(%q): %v", c.parser, c.in, err)
		case c.want != nil && !reflect.DeepEqual(got, c.want):
			t.Errorf("%s(%q) = %#v, want %#v", c.parser, c.in, got, c.want)
		}
	}
}

// FuzzSpecs feeds every input to all eight entry points. None may panic,
// and whatever one accepts must validate and survive a round trip through
// its String form: field for field for faults and chaos, as a stable
// string for codecs and stacks, as an equal struct for optimizers. The
// per-package properties ride along: a per-dispatch fault has subjects,
// an attack compiles to a behavior, a codec, stack or optimizer builds.
func FuzzSpecs(f *testing.F) {
	for _, seed := range []string{
		// The corpora of the per-parser fuzz targets this one replaced.
		"crash", "crash:0.2", "drop:0.5", "dup:1", "slow:0.3:4", "servercrash:5", "x:y:z", "",
		"signflip", "scale:0.3", "sybil:0.25:2", "freeload:1", ":::", "labelnoise:0.5:0.9",
		"none", "zeroing", "clip:5", "zeroing:20|clip", "zeroing|zeroing|clip:0.1", "a:b", "|", "clip:1e300",
		"fedsgd", "adam:0.1", "yogi:2", "adagrad", "x:y", ":", "adam:1e-300",
		// Chaos and codec specs, and lists, which no parser fuzz reached.
		"reset:0.01", "partition:0.005:2", "reset:0.05,slow:0.2:0.02", "topk:0.01", "int8:256",
		"crash:0.2,drop:0.1,dup:0.3,slow:0.5:4",
		// Inputs that parsed, dropping their last argument, before the
		// kind tables.
		"crash:0.2:9", "reset:0.1:2", "signflip:0.3:2", "freeload:0.3:7",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if xs, err := fault.ParseFaults(s); err == nil {
			for _, x := range xs {
				checkFault(t, s, x)
			}
		}
		if x, err := fault.ParseFault(s); err == nil {
			checkFault(t, s, x)
		}
		if x, err := adversary.ParseAttack(s); err == nil {
			if err := x.Validate(); err != nil || x.Behavior() == nil {
				t.Fatalf("ParseAttack(%q) = %+v (validate: %v, behavior: %v)", s, x, err, x.Behavior())
			}
		}
		if xs, err := chaos.ParseList(s); err == nil {
			for _, x := range xs {
				checkChaos(t, s, x)
			}
		}
		if x, err := chaos.Parse(s); err == nil {
			checkChaos(t, s, x)
		}
		if x, err := compress.ParseSpec(s); err == nil {
			if _, err := x.Codec(); err != nil {
				t.Fatalf("ParseSpec(%q) = %+v does not build: %v", s, x, err)
			}
			if rt, err := compress.ParseSpec(x.String()); err != nil || rt.String() != x.String() {
				t.Fatalf("ParseSpec(%q): %q re-parses to %q (%v)", s, x.String(), rt.String(), err)
			}
		}
		if x, err := aggstack.ParseStack(s); err == nil {
			if err := x.Validate(); err != nil {
				t.Fatalf("ParseStack(%q) accepted an invalid spec: %v", s, err)
			}
			if _, err := aggstack.NewStages(x); err != nil {
				t.Fatalf("ParseStack(%q) = %q does not build: %v", s, x.String(), err)
			}
			if rt, err := aggstack.ParseStack(x.String()); err != nil || rt.String() != x.String() {
				t.Fatalf("ParseStack(%q): %q re-parses to %q (%v)", s, x.String(), rt.String(), err)
			}
		}
		if x, err := aggstack.ParseServerOpt(s); err == nil {
			if err := x.Validate(); err != nil {
				t.Fatalf("ParseServerOpt(%q) accepted an invalid spec: %v", s, err)
			}
			if _, err := aggstack.NewOptimizer(x); err != nil {
				t.Fatalf("ParseServerOpt(%q) = %v does not build: %v", s, x, err)
			}
			if rt, err := aggstack.ParseServerOpt(x.String()); err != nil || rt != x {
				t.Fatalf("ParseServerOpt(%q) = %v re-parses to %v (%v)", s, x, rt, err)
			}
		}
	})
}

// checkFault: an accepted fault validates and re-parses from its String
// to the same spec.
func checkFault(t *testing.T, s string, x fault.Spec) {
	t.Helper()
	if err := x.Validate(); err != nil {
		t.Fatalf("%q: accepted fault %+v fails Validate: %v", s, x, err)
	}
	if rt, err := fault.ParseFault(x.String()); err != nil || !reflect.DeepEqual(rt, x) {
		t.Fatalf("%q: fault %#v re-parses from %q to %#v (%v)", s, x, x.String(), rt, err)
	}
}

// checkChaos: an accepted chaos spec validates and re-parses from its
// String to the same spec.
func checkChaos(t *testing.T, s string, x chaos.Spec) {
	t.Helper()
	if err := x.Validate(); err != nil {
		t.Fatalf("%q: accepted chaos spec %+v fails Validate: %v", s, x, err)
	}
	if rt, err := chaos.Parse(x.String()); err != nil || rt != x {
		t.Fatalf("%q: chaos spec %#v re-parses from %q to %#v (%v)", s, x, x.String(), rt, err)
	}
}
