package runflag

import (
	"bufio"
	"flag"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/aggstack"
	"repro/internal/experiments"
)

// FuzzRunFlags: argv through Register and the spec half of Build never
// panics, and every spec it accepts is valid — -freeloaders and -attack
// each add exactly one adversary, which compiles to a behavior, stacks
// and optimizers build, and Config.Validate lets through no precision
// outside the documented table ("", "f64", "f32"). argv is one string,
// "\n"-separated, so flag values may hold any other byte.
func FuzzRunFlags(f *testing.F) {
	for _, argv := range [][]string{
		{"-attack", "signflip"},
		{"-attack", "scale:0.5:2"},
		{"-attack", "sybil:0.25:2"},
		{"-attack", ":-1:1e308"},
		{"-fault", "crash"},
		{"-fault", "crash:0.2,drop:0.1,dup:0.3,slow:0.5:4"},
		{"-fault", "servercrash:10"},
		{"-fault", ":::,,,"},
		{"-aggstack", "zeroing|clip", "-serveropt", "adam"},
		{"-aggstack", "clip:5", "-serveropt", "fedsgd:1"},
		{"-aggstack", "none", "-serveropt", "yogi:0.01"},
		{"-aggstack", ":::||", "-serveropt", ":::"},
		{"-dtype", "f64"},
		{"-dtype", "f32"},
		{"-dtype", ""},
		{"-dtype", "f16"},
	} {
		f.Add(strings.Join(argv, "\n"))
	}
	f.Fuzz(func(t *testing.T, argv string) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		r := Register(fs, Sim)
		// The client count sizes the fleet; keep the fuzzer's allocations small.
		if fs.Parse(strings.Split(argv, "\n")) != nil || r.Clients > 1<<10 {
			return
		}
		cfg, _, _, err := r.Spec()
		if err != nil {
			return
		}
		want := 0
		if r.Freeloaders > 0 {
			want++
		}
		if r.Attack != "" {
			want++
		}
		if len(cfg.Adversaries) != want {
			t.Fatalf("%q: accepted with %d adversaries, want %d", argv, len(cfg.Adversaries), want)
		}
		for _, spec := range cfg.Adversaries {
			if err := spec.Validate(); err != nil || spec.Behavior() == nil {
				t.Fatalf("%q: accepted adversary %+v (validate: %v)", argv, spec, err)
			}
		}
		for _, spec := range cfg.Faults {
			if err := spec.Validate(); err != nil {
				t.Fatalf("%q: accepted invalid fault %+v: %v", argv, spec, err)
			}
		}
		if _, err := aggstack.NewStages(cfg.AggStack); err != nil {
			t.Fatalf("%q: accepted stack %+v does not build: %v", argv, cfg.AggStack, err)
		}
		if _, err := aggstack.NewOptimizer(cfg.ServerOpt); err != nil {
			t.Fatalf("%q: accepted optimizer %+v does not build: %v", argv, cfg.ServerOpt, err)
		}
		if err := cfg.Compress.Validate(); err != nil {
			t.Fatalf("%q: accepted invalid codec %+v: %v", argv, cfg.Compress, err)
		}
		if cfg.Validate() == nil && !slices.Contains([]string{"", "f64", "f32"}, cfg.DType) {
			t.Fatalf("%q: invalid dtype %q validated", argv, cfg.DType)
		}
	})
}

// TestDocumentedCommands keeps the docs runnable: every `go run
// ./cmd/flsim` line in README.md and the quickstart, and README's
// flserver CFG, parses through Register with its command's defaults and
// builds (data included, no training) into a config that validates. An
// -experiment line must name a registered experiment at a known scale.
func TestDocumentedCommands(t *testing.T) {
	var checked int
	for _, path := range []string{"../../README.md", "../../examples/quickstart/README.md"} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line, _, _ := strings.Cut(strings.TrimSpace(sc.Text()), "#")
			def := Sim
			if args, ok := strings.CutPrefix(line, "CFG="); ok {
				line, def = strings.Trim(args, `"`), Server
			} else if line, ok = strings.CutPrefix(line, "go run ./cmd/flsim"); !ok {
				continue
			}
			line = strings.TrimSpace(line)
			checked++
			t.Run(line, func(t *testing.T) {
				fs := flag.NewFlagSet("doc", flag.ContinueOnError)
				fs.SetOutput(io.Discard)
				r := Register(fs, def)
				exp := fs.String("experiment", "", "")
				var argv []string
				for _, w := range strings.Fields(line) {
					argv = append(argv, strings.Trim(w, `'`))
				}
				if err := fs.Parse(argv); err != nil {
					t.Fatal(err)
				}
				if *exp != "" {
					if _, err := r.ExperimentScale(); err != nil {
						t.Fatal(err)
					}
					if *exp != "all" && !slices.Contains(experiments.IDs(), *exp) {
						t.Fatalf("unknown experiment %q", *exp)
					}
					return
				}
				cfg, _, _, _, _, err := r.Build()
				if err != nil {
					t.Fatal(err)
				}
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if checked < 20 {
		t.Fatalf("found only %d documented commands; did the docs move?", checked)
	}
}
