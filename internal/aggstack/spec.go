// Package aggstack implements the composable robust-aggregation pipeline
// (DESIGN.md §9): a stack of pre-aggregation stages — zeroing (drop
// updates whose norm exceeds a bound) and clipping (project updates onto
// an L2 ball) — each with either a fixed norm bound or a quantile-matched
// adaptive one (TFF-style geometric quantile estimation), followed by a
// server optimizer (FedSGD/FedAdagrad/FedAdam/FedYogi) that consumes the
// aggregated pseudo-gradient with O(d) moment state.
//
// The package is spec + numeric machinery only: stages operate on plain
// per-update norms and multipliers, and optimizers on flat []float64
// parameter vectors, so it never imports the FL engine — the engine's
// Config holds the specs (mirroring compress.Spec / fault.Spec) and a
// wrapper in internal/fl applies them to real updates. All state (the
// quantile estimates, the optimizer moments) is caller-visible and
// fixed-size, which is what makes checkpointing bit-identical and the
// steady-state rounds allocation-free: Grow pre-sizes everything once.
package aggstack

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/spec"
)

// StageKind names a pre-aggregation stage family.
type StageKind string

const (
	// StageZeroing drops (weights to zero) every update whose norm
	// exceeds the stage's bound.
	StageZeroing StageKind = "zeroing"
	// StageClipping rescales every update whose norm exceeds the stage's
	// bound onto the L2 ball of that radius.
	StageClipping StageKind = "clip"
)

// StageKindNames lists the accepted stage kinds in pipeline order.
func StageKindNames() []string { return []string{"zeroing", "clip"} }

// StageSpec declares one stage. A zero Norm selects the adaptive
// quantile-matched bound with the stage kind's defaults; a positive Norm
// fixes the bound for the whole run.
type StageSpec struct {
	// Kind selects the stage family.
	Kind StageKind
	// Norm is the fixed norm bound; 0 selects adaptive quantile matching.
	Norm float64
}

// Validate reports specification errors.
func (s StageSpec) Validate() error {
	switch s.Kind {
	case StageZeroing, StageClipping:
	default:
		return fmt.Errorf("aggstack: unknown stage kind %q (valid: %v)", s.Kind, StageKindNames())
	}
	if math.IsNaN(s.Norm) || math.IsInf(s.Norm, 0) || s.Norm < 0 {
		return fmt.Errorf("aggstack: stage %s norm %v must be a finite non-negative number (0 selects adaptive quantile matching)", s.Kind, s.Norm)
	}
	return nil
}

// String renders the stage in ParseStack syntax.
func (s StageSpec) String() string {
	if s.Norm == 0 {
		return string(s.Kind)
	}
	return fmt.Sprintf("%s:%g", s.Kind, s.Norm)
}

// StackSpec declares the ordered pre-aggregation pipeline. The zero value
// (no stages) is the identity: updates reach the inner rule untouched.
type StackSpec struct {
	// Stages run in order over each round's updates before the inner
	// aggregation rule sees them.
	Stages []StageSpec
}

// Validate reports specification errors.
func (s StackSpec) Validate() error {
	for i, st := range s.Stages {
		if err := st.Validate(); err != nil {
			return fmt.Errorf("stage %d: %w", i, err)
		}
	}
	return nil
}

// Empty reports whether the stack is the identity (no stages).
func (s StackSpec) Empty() bool { return len(s.Stages) == 0 }

// String renders the stack in ParseStack syntax ("" for the empty stack).
func (s StackSpec) String() string {
	parts := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		parts[i] = st.String()
	}
	return strings.Join(parts, "|")
}

// stages is the -aggstack kind table: the arguments each stage takes.
var stages = spec.Grammar{Pkg: "aggstack", Fields: map[string][]string{
	"zeroing": {"norm"}, "clip": {"norm"},
}}

// ParseStack parses the CLI syntax "stage[:norm]|stage[:norm]|..."
// (DESIGN.md §6's spec grammar), e.g. "zeroing|clip" (both adaptive),
// "zeroing:20|clip:5" (fixed bounds), or "" / "none" for the empty
// stack. It mirrors compress.ParseSpec / fault.ParseFault: every parse
// round-trips through String.
func ParseStack(s string) (StackSpec, error) {
	if spec.None(s) {
		return StackSpec{}, nil
	}
	list, err := spec.List(s, "|", parseStage)
	return StackSpec{Stages: list}, err
}

// parseStage parses one ParseStack stage. A norm of 0 means adaptive, and
// that is spelled by leaving the norm out, so an explicit 0 is an error.
func parseStage(s string) (StageSpec, error) {
	e := stages.Entry(s)
	st := StageSpec{Kind: StageKind(e.Kind)}
	st, err := spec.Fill(e, &st, &st.Norm)
	if err == nil && len(e.Args) > 0 && st.Norm == 0 {
		return StageSpec{}, fmt.Errorf("aggstack: stage %s: explicit norm must be positive (omit it for adaptive quantile matching)", e.Kind)
	}
	return st, err
}

// OptKind names a server-optimizer family.
type OptKind string

const (
	// OptNone is the zero value: no server optimizer at all (the inner
	// rule's model update stands). Distinct from OptFedSGD(1), which runs
	// the optimizer machinery and happens to be the identity.
	OptNone OptKind = ""
	// OptFedSGD applies the aggregated delta scaled by the server LR —
	// with LR 1 this is exactly today's behavior.
	OptFedSGD OptKind = "fedsgd"
	// OptAdagrad is FedAdagrad: accumulated squared pseudo-gradients.
	OptAdagrad OptKind = "adagrad"
	// OptAdam is FedAdam: EMA first and second moments, bias-corrected.
	OptAdam OptKind = "adam"
	// OptYogi is FedYogi: Adam with the sign-damped second-moment update.
	OptYogi OptKind = "yogi"
)

// String implements fmt.Stringer, naming the zero value explicitly.
func (k OptKind) String() string {
	if k == OptNone {
		return "none"
	}
	return string(k)
}

// OptKindNames lists the accepted -serveropt flag values.
func OptKindNames() []string { return []string{"fedsgd", "adagrad", "adam", "yogi"} }

// Server-optimizer defaults (Reddi et al., "Adaptive Federated
// Optimization": β1 = 0.9, β2 = 0.99, τ = 1e-3).
const (
	// DefaultBeta1 is the first-moment EMA decay.
	DefaultBeta1 = 0.9
	// DefaultBeta2 is the second-moment EMA decay.
	DefaultBeta2 = 0.99
	// DefaultEps is the adaptivity floor τ added to √v.
	DefaultEps = 1e-3
	// DefaultSGDLR is the FedSGD server learning rate when LR is 0.
	DefaultSGDLR = 1.0
	// DefaultAdaptiveLR is the adaptive optimizers' server learning rate
	// when LR is 0.
	DefaultAdaptiveLR = 0.1
)

// OptSpec declares a server optimizer. The zero value selects no
// optimizer (the aggregated model stands unchanged).
type OptSpec struct {
	// Kind selects the optimizer family.
	Kind OptKind
	// LR is the server learning rate; 0 selects the kind's default
	// (DefaultSGDLR for fedsgd, DefaultAdaptiveLR otherwise).
	LR float64
}

// Validate reports specification errors.
func (s OptSpec) Validate() error {
	switch s.Kind {
	case OptNone:
		if s.LR != 0 {
			return fmt.Errorf("aggstack: server LR %v without an optimizer kind", s.LR)
		}
		return nil
	case OptFedSGD, OptAdagrad, OptAdam, OptYogi:
	default:
		return fmt.Errorf("aggstack: unknown server optimizer %q (valid: %v)", s.Kind, OptKindNames())
	}
	if math.IsNaN(s.LR) || math.IsInf(s.LR, 0) || s.LR < 0 {
		return fmt.Errorf("aggstack: server LR %v must be a finite non-negative number (0 selects the default)", s.LR)
	}
	return nil
}

// None reports whether the spec selects no optimizer.
func (s OptSpec) None() bool { return s.Kind == OptNone }

// lr resolves the learning-rate default.
func (s OptSpec) lr() float64 {
	if s.LR != 0 {
		return s.LR
	}
	if s.Kind == OptFedSGD {
		return DefaultSGDLR
	}
	return DefaultAdaptiveLR
}

// String renders the spec in ParseServerOpt syntax ("" for none).
func (s OptSpec) String() string {
	if s.Kind == OptNone {
		return ""
	}
	if s.LR == 0 {
		return string(s.Kind)
	}
	return fmt.Sprintf("%s:%g", s.Kind, s.LR)
}

// optimizers is the -serveropt kind table: the arguments each
// optimizer takes.
var optimizers = spec.Grammar{Pkg: "aggstack", Fields: map[string][]string{
	"fedsgd": {"lr"}, "adagrad": {"lr"}, "adam": {"lr"}, "yogi": {"lr"},
}}

// ParseServerOpt parses the CLI syntax "kind[:lr]" (DESIGN.md §6's spec
// grammar), e.g. "adam", "adam:0.05", "fedsgd:1", or "" / "none" for no
// optimizer. An explicit lr of 0 is an error: 0 is the kind's default,
// spelled by leaving the lr out.
func ParseServerOpt(s string) (OptSpec, error) {
	if spec.None(s) {
		return OptSpec{}, nil
	}
	e := optimizers.Entry(s)
	o := OptSpec{Kind: OptKind(e.Kind)}
	o, err := spec.Fill(e, &o, &o.LR)
	if err == nil && len(e.Args) > 0 && o.LR == 0 {
		return OptSpec{}, fmt.Errorf("aggstack: optimizer %s: explicit lr must be positive (omit it for the default)", e.Kind)
	}
	return o, err
}
