package aggstack

import (
	"strings"
	"testing"
)

func TestParseStack(t *testing.T) {
	cases := []struct {
		in   string
		want string // String() round-trip form; "ERR" marks a parse error
	}{
		{"", ""},
		{"none", ""},
		{"zeroing", "zeroing"},
		{"clip", "clip"},
		{"zeroing|clip", "zeroing|clip"},
		{"zeroing:20|clip:5", "zeroing:20|clip:5"},
		{" zeroing : 20 ", "zeroing:20"}, // every field is trimmed
		{"zeroing:20 | clip", "zeroing:20|clip"},
		{"clip:0.5", "clip:0.5"},
		{"clip|clip:1", "clip|clip:1"},
		{"zeroing:0", "ERR"},
		{"zeroing:-3", "ERR"},
		{"zeroing:NaN", "ERR"},
		{"zeroing:Inf", "ERR"},
		{"zeroing:x", "ERR"},
		{"median", "ERR"},
		{"zeroing||clip", "ERR"},
		{"|", "ERR"},
	}
	for _, c := range cases {
		spec, err := ParseStack(c.in)
		if c.want == "ERR" {
			if err == nil {
				t.Errorf("ParseStack(%q) = %v, want error", c.in, spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseStack(%q): %v", c.in, err)
			continue
		}
		if got := spec.String(); got != c.want {
			t.Errorf("ParseStack(%q).String() = %q, want %q", c.in, got, c.want)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("ParseStack(%q).Validate(): %v", c.in, err)
		}
	}
}

func TestParseServerOpt(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", ""},
		{"none", ""},
		{"fedsgd", "fedsgd"},
		{"fedsgd:1", "fedsgd:1"},
		{"adam", "adam"},
		{"adam:0.05", "adam:0.05"},
		{"adagrad:0.1", "adagrad:0.1"},
		{"yogi", "yogi"},
		{"adam:0", "ERR"},
		{"adam:-1", "ERR"},
		{"adam:NaN", "ERR"},
		{"adam:x", "ERR"},
		{"momentum", "ERR"},
		{"none:5", "ERR"},
	}
	for _, c := range cases {
		spec, err := ParseServerOpt(c.in)
		if c.want == "ERR" {
			if err == nil {
				t.Errorf("ParseServerOpt(%q) = %v, want error", c.in, spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseServerOpt(%q): %v", c.in, err)
			continue
		}
		if got := spec.String(); got != c.want {
			t.Errorf("ParseServerOpt(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestOptSpecDefaults(t *testing.T) {
	if lr := (OptSpec{Kind: OptFedSGD}).lr(); lr != DefaultSGDLR {
		t.Errorf("fedsgd default lr = %v, want %v", lr, DefaultSGDLR)
	}
	for _, k := range []OptKind{OptAdagrad, OptAdam, OptYogi} {
		if lr := (OptSpec{Kind: k}).lr(); lr != DefaultAdaptiveLR {
			t.Errorf("%s default lr = %v, want %v", k, lr, DefaultAdaptiveLR)
		}
	}
	if lr := (OptSpec{Kind: OptAdam, LR: 0.5}).lr(); lr != 0.5 {
		t.Errorf("explicit lr = %v, want 0.5", lr)
	}
}

// FuzzParseStack: the parser never panics, and every accepted spec
// validates and round-trips through String bit-exactly.
func FuzzParseStack(f *testing.F) {
	for _, seed := range []string{"", "none", "zeroing", "clip:5", "zeroing:20|clip", "zeroing|zeroing|clip:0.1", "a:b", "|", "clip:1e300"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseStack(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseStack(%q) accepted an invalid spec: %v", s, err)
		}
		rt, err := ParseStack(spec.String())
		if err != nil {
			t.Fatalf("round-trip ParseStack(%q): %v", spec.String(), err)
		}
		if rt.String() != spec.String() {
			t.Fatalf("round-trip %q -> %q", spec.String(), rt.String())
		}
		if _, err := NewStages(spec); err != nil {
			t.Fatalf("NewStages(%q): %v", spec.String(), err)
		}
	})
}

// FuzzParseServerOpt: parser never panics; accepted specs validate,
// round-trip, and construct.
func FuzzParseServerOpt(f *testing.F) {
	for _, seed := range []string{"", "none", "fedsgd", "adam:0.1", "yogi:2", "adagrad", "x:y", ":", "adam:1e-300"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseServerOpt(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseServerOpt(%q) accepted an invalid spec: %v", s, err)
		}
		rt, err := ParseServerOpt(spec.String())
		if err != nil {
			t.Fatalf("round-trip ParseServerOpt(%q): %v", spec.String(), err)
		}
		if rt != spec {
			t.Fatalf("round-trip %v -> %v", spec, rt)
		}
		if _, err := NewOptimizer(spec); err != nil {
			t.Fatalf("NewOptimizer(%v): %v", spec, err)
		}
	})
}

// Sanity: strings.Contains guard so a future syntax change that drops the
// "|" separator trips a test, not just docs.
func TestStackStringSeparator(t *testing.T) {
	s := StackSpec{Stages: []StageSpec{{Kind: StageZeroing}, {Kind: StageClipping, Norm: 2}}}
	if got := s.String(); !strings.Contains(got, "|") {
		t.Fatalf("StackSpec.String() = %q, want '|'-separated", got)
	}
}
