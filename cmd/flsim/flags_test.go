package main

import (
	"flag"
	"io"
	"testing"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/runflag"
)

// spec parses args through flsim's flag set and returns the spec half of
// the run they describe (no data is materialised).
func spec(t *testing.T, args ...string) (*fl.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("flsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	r := runflag.Register(fs, runflag.Sim)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	cfg, _, _, err := r.Spec()
	return cfg, err
}

// mustSpec is spec for an invocation that must be accepted.
func mustSpec(t *testing.T, args ...string) *fl.Config {
	t.Helper()
	cfg, err := spec(t, args...)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return cfg
}

// reject requires an invocation to fail in the spec half.
func reject(t *testing.T, args ...string) {
	t.Helper()
	if _, err := spec(t, args...); err == nil {
		t.Fatalf("%q accepted", args)
	}
}

func TestBuildAttack(t *testing.T) {
	if cfg := mustSpec(t); cfg.Adversaries != nil {
		t.Fatalf("no attack -> %+v, want none", cfg.Adversaries)
	}
	advs := mustSpec(t, "-attack", "signflip").Adversaries
	if len(advs) != 1 || advs[0].Kind != adversary.KindSignFlip || advs[0].Frac != 0.25 {
		t.Fatalf("default spec = %+v", advs)
	}
	// The spec string is the one setter of the fraction and the scale.
	advs = mustSpec(t, "-attack", "scale:0.5:2").Adversaries
	if len(advs) != 1 || advs[0].Kind != adversary.KindScale || advs[0].Frac != 0.5 || advs[0].Scale != 2 {
		t.Fatalf("-attack scale:0.5:2 = %+v", advs)
	}
	// Freeloaders come first, so freeloading settles before the attack.
	advs = mustSpec(t, "-freeloaders", "2", "-attack", "signflip").Adversaries
	if len(advs) != 2 || advs[0].Kind != adversary.KindFreeloader || len(advs[0].Clients) != 2 || advs[0].Clients[0] != 18 {
		t.Fatalf("freeloaders + attack = %+v", advs)
	}
	reject(t, "-attack", ":0.5") // a fraction without a kind
	reject(t, "-attack", "nope")
	reject(t, "-attack", "signflip:2")
	reject(t, "-freeloaders", "20")
}

func TestBuildCompress(t *testing.T) {
	if c := mustSpec(t).Compress; c != (compress.Spec{}) {
		t.Fatalf("no codec -> %+v, want zero spec", c)
	}
	if c := mustSpec(t, "-compress", "topk").Compress; c.Kind != compress.KindTopK || c.TopKFrac != 0 {
		t.Fatalf("-compress topk = %+v", c)
	}
	// The spec string is the one setter of the fraction.
	if c := mustSpec(t, "-compress", "topk:0.02").Compress; c.Kind != compress.KindTopK || c.TopKFrac != 0.02 {
		t.Fatalf("-compress topk:0.02 = %+v", c)
	}
	if c := mustSpec(t, "-compress", "int8:128").Compress; c.Chunk != 128 {
		t.Fatalf("-compress int8:128 = %+v", c)
	}
	reject(t, "-compress", "gzip")
	reject(t, "-compress", "topk:2")
	reject(t, "-compress", "topk:1.5")
	reject(t, "-compress", "int8:0.1") // a fraction for a codec that takes a chunk
	reject(t, "-compress", ":0.01")    // a fraction without a codec
}

func TestBuildFaults(t *testing.T) {
	if f := mustSpec(t).Faults; f != nil {
		t.Fatalf("no faults -> %+v, want nil", f)
	}
	f := mustSpec(t, "-fault", "crash").Faults
	if len(f) != 1 || f[0].Kind != fault.KindCrash || f[0].Frac != 0.25 {
		t.Fatalf("default spec = %+v", f)
	}
	f = mustSpec(t, "-fault", "crash:0.2,slow:0.3:4,servercrash:10").Faults
	if len(f) != 3 || f[1].Param != 4 || f[2].Round != 10 {
		t.Fatalf("parsed specs = %+v", f)
	}
	for _, bad := range []string{"nope", "crash:2", "slow:0.5:0.5", "servercrash:0", "crash:,"} {
		reject(t, "-fault", bad)
	}
}

func TestBuildStack(t *testing.T) {
	if s := mustSpec(t).AggStack; !s.Empty() {
		t.Fatalf("no stack -> %+v, want empty", s)
	}
	s := mustSpec(t, "-aggstack", "zeroing|clip:5").AggStack
	if len(s.Stages) != 2 || s.Stages[0].Kind != aggstack.StageZeroing ||
		s.Stages[1].Kind != aggstack.StageClipping || s.Stages[1].Norm != 5 {
		t.Fatalf("parsed stack = %+v", s)
	}
	for _, bad := range []string{"nope", "zeroing:0", "clip:-1", "zeroing||clip"} {
		reject(t, "-aggstack", bad)
	}
}

func TestBuildServerOpt(t *testing.T) {
	if o := mustSpec(t).ServerOpt; !o.None() {
		t.Fatalf("no optimizer -> %+v, want none", o)
	}
	if o := mustSpec(t, "-serveropt", "adam:0.05").ServerOpt; o.Kind != aggstack.OptAdam || o.LR != 0.05 {
		t.Fatalf("parsed optimizer = %+v", o)
	}
	for _, bad := range []string{"momentum", "adam:-1", "adam:0.1:2"} {
		reject(t, "-serveropt", bad)
	}
}

// TestDTypeFlagValues: the -dtype value is forwarded verbatim and
// Config.Validate is its only gate.
func TestDTypeFlagValues(t *testing.T) {
	for _, ok := range []string{"", "f64", "f32"} {
		if err := mustSpec(t, "-dtype", ok).Validate(); err != nil {
			t.Fatalf("-dtype %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"f16", "F32", "float32", "64", " f64"} {
		if err := mustSpec(t, "-dtype", bad).Validate(); err == nil {
			t.Fatalf("-dtype %q accepted", bad)
		}
	}
}

// accepted runs args through the spec half and reports whether they were
// accepted; a flag-set parse failure counts as a rejection.
func accepted(args ...string) (*fl.Config, bool) {
	fs := flag.NewFlagSet("flsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	r := runflag.Register(fs, runflag.Sim)
	if fs.Parse(args) != nil {
		return nil, false
	}
	cfg, _, _, err := r.Spec()
	return cfg, err == nil
}

// FuzzAttackFlag: the -attack flag never panics and anything it accepts
// is exactly one valid, compilable adversary.
func FuzzAttackFlag(f *testing.F) {
	f.Add("signflip")
	f.Add("scale:0.5:2")
	f.Add("sybil:0.25:2")
	f.Add(":-1:1e308")
	f.Fuzz(func(t *testing.T, attack string) {
		cfg, ok := accepted("-attack", attack)
		if !ok {
			return
		}
		if attack != "" && len(cfg.Adversaries) != 1 {
			t.Fatalf("-attack %q accepted with adversaries %+v", attack, cfg.Adversaries)
		}
		for _, spec := range cfg.Adversaries {
			if err := spec.Validate(); err != nil || spec.Behavior() == nil {
				t.Fatalf("-attack %q: accepted adversary %+v (validate: %v)", attack, spec, err)
			}
		}
	})
}

// FuzzFaultFlag: the -fault flag never panics and anything it accepts is
// a valid spec list.
func FuzzFaultFlag(f *testing.F) {
	f.Add("crash")
	f.Add("crash:0.2,drop:0.1,dup:0.3,slow:0.5:4")
	f.Add("servercrash:10")
	f.Add(":::,,,")
	f.Fuzz(func(t *testing.T, s string) {
		cfg, ok := accepted("-fault", s)
		if !ok {
			return
		}
		for _, spec := range cfg.Faults {
			if err := spec.Validate(); err != nil {
				t.Fatalf("-fault %q: accepted invalid spec %+v: %v", s, spec, err)
			}
		}
	})
}

// FuzzStackFlag: the -aggstack/-serveropt flags never panic and anything
// they accept is a valid, buildable spec.
func FuzzStackFlag(f *testing.F) {
	f.Add("zeroing|clip", "adam")
	f.Add("clip:5", "fedsgd:1")
	f.Add("none", "yogi:0.01")
	f.Add(":::||", ":::")
	f.Fuzz(func(t *testing.T, stack, opt string) {
		if cfg, ok := accepted("-aggstack", stack); ok {
			if _, err := aggstack.NewStages(cfg.AggStack); err != nil {
				t.Fatalf("-aggstack %q: accepted stack %+v does not build: %v", stack, cfg.AggStack, err)
			}
		}
		if cfg, ok := accepted("-serveropt", opt); ok {
			if _, err := aggstack.NewOptimizer(cfg.ServerOpt); err != nil {
				t.Fatalf("-serveropt %q: accepted optimizer %+v does not build: %v", opt, cfg.ServerOpt, err)
			}
		}
	})
}

// FuzzDTypeFlag: the -dtype flag never panics, and the only values
// Config.Validate lets through are the documented precision table ("",
// "f64", "f32") — a new entry added to the table without updating the
// flag's contract shows up here.
func FuzzDTypeFlag(f *testing.F) {
	f.Add("f64")
	f.Add("f32")
	f.Add("")
	f.Add("f16")
	f.Fuzz(func(t *testing.T, s string) {
		cfg, ok := accepted("-dtype", s)
		if !ok {
			t.Fatalf("-dtype %q rejected before validation", s)
		}
		err := cfg.Validate()
		valid := s == "" || s == "f64" || s == "f32"
		if valid && err != nil {
			t.Fatalf("valid dtype %q rejected: %v", s, err)
		}
		if !valid && err == nil {
			t.Fatalf("invalid dtype %q accepted", s)
		}
	})
}
