package fault

import "testing"

func TestParseFault(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"crash", Spec{Kind: KindCrash, Frac: 0.25}},
		{"crash:0.2", Spec{Kind: KindCrash, Frac: 0.2}},
		{"drop:0.5", Spec{Kind: KindDrop, Frac: 0.5}},
		{"dup", Spec{Kind: KindDup, Frac: 0.25}},
		{"dup:1", Spec{Kind: KindDup, Frac: 1}},
		{"slow", Spec{Kind: KindSlow, Frac: 0.25, Param: 4}},
		{"slow:0.3:8", Spec{Kind: KindSlow, Frac: 0.3, Param: 8}},
		{" slow : 0.3 : 8 ", Spec{Kind: KindSlow, Frac: 0.3, Param: 8}},
		{"servercrash", Spec{Kind: KindServerCrash, Round: 1}},
		{"servercrash:5", Spec{Kind: KindServerCrash, Round: 5}},
	}
	for _, c := range cases {
		got, err := ParseFault(c.in)
		if err != nil {
			t.Fatalf("ParseFault(%q): %v", c.in, err)
		}
		if got.Kind != c.want.Kind || got.Frac != c.want.Frac || got.Param != c.want.Param || got.Round != c.want.Round {
			t.Errorf("ParseFault(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseFaultErrors(t *testing.T) {
	bad := []string{
		"",                // unknown kind
		"meteor",          // unknown kind
		"crash:1",         // certain crash livelocks async
		"crash:0",         // zero-probability fault selects nothing
		"crash:-0.1",      // negative
		"drop:1.5",        // out of range
		"dup:0",           // zero probability
		"slow:0.3:0.5",    // factor < 1
		"slow:0.3:4:9",    // too many fields
		"crash:zebra",     // non-numeric fraction
		"slow:0.3:zebra",  // non-numeric parameter
		"servercrash:0",   // nothing to recover
		"servercrash:-3",  // negative round
		"servercrash:1:2", // extra field
		"servercrash:x",   // non-numeric round
		"crash:0.2:9",     // crash takes no parameter
	}
	for _, in := range bad {
		if _, err := ParseFault(in); err == nil {
			t.Errorf("ParseFault(%q): expected error", in)
		}
	}
	if err := (Spec{Kind: KindServerCrash, Round: 2, Frac: 0.5}).Validate(); err == nil {
		t.Error("servercrash with a fraction: expected error")
	}
}

func TestParseFaults(t *testing.T) {
	specs, err := ParseFaults("crash:0.2,drop:0.1,servercrash:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Kind != KindCrash || specs[1].Kind != KindDrop || specs[2].Kind != KindServerCrash {
		t.Fatalf("ParseFaults: got %+v", specs)
	}
	if specs, err := ParseFaults("  "); err != nil || specs != nil {
		t.Fatalf("ParseFaults(blank) = %v, %v; want nil, nil", specs, err)
	}
	if _, err := ParseFaults("crash:0.2,bogus"); err == nil {
		t.Fatal("ParseFaults with a bad field: expected error")
	}
}

func TestString(t *testing.T) {
	for _, in := range []string{"crash:0.2", "slow:0.3:8", "servercrash:5"} {
		spec, err := ParseFault(in)
		if err != nil {
			t.Fatal(err)
		}
		if spec.String() != in {
			t.Errorf("String() = %q, want %q", spec.String(), in)
		}
	}
}

// FuzzParseFault: the parser never panics, and every accepted spec
// validates and re-parses to the same kind from its String form.
func FuzzParseFault(f *testing.F) {
	for _, seed := range []string{"crash", "crash:0.2", "drop:0.5", "dup:1", "slow:0.3:4", "servercrash:5", "x:y:z", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFault(s)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseFault(%q) accepted a spec that fails Validate: %v", s, verr)
		}
		round, err := ParseFault(spec.String())
		if err != nil {
			t.Fatalf("ParseFault(String(%q)=%q): %v", s, spec.String(), err)
		}
		if round.Kind != spec.Kind {
			t.Fatalf("round-trip kind mismatch: %q vs %q", round.Kind, spec.Kind)
		}
	})
}
