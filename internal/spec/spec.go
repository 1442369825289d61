// Package spec is the one surface grammar of the run-spec strings: the
// fault, attack, chaos, codec, aggregation-stage and server-optimizer
// specs all read "kind[:a[:b]]" entries, and the fault, chaos and stack
// flags join entries into a list (DESIGN.md §6, "The spec grammar").
// This package owns the syntax: splitting, trimming, the per-kind arity
// check and number conversion. What a kind's arguments mean (their
// defaults and ranges) stays with the package that declares the kind,
// in its Validate and its parse function.
package spec

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Grammar is one package's kind table.
type Grammar struct {
	// Pkg prefixes every error, e.g. "fault".
	Pkg string
	// Fields names, for each kind, the arguments it takes in order; a
	// kind takes at most len(Fields[kind]) arguments, and a kind not in
	// the table is unknown.
	Fields map[string][]string
}

// Entry is one tokenised "kind[:a[:b]]" entry, or the error that
// tokenising it met.
type Entry struct {
	Kind string
	// Args are the given arguments, trimmed.
	Args []string
	g    Grammar
	err  error
}

// Entry tokenises s: its ":"-separated fields are trimmed, and none may
// be empty, so a blank s is an error too. The kind must be in g's table
// and given no more arguments than it takes. An error is kept in the
// entry and returned by Fill.
func (g Grammar) Entry(s string) Entry {
	fields := strings.Split(s, ":")
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	e := Entry{Kind: fields[0], Args: fields[1:], g: g}
	names, known := g.Fields[e.Kind]
	switch {
	case strings.TrimSpace(s) == "":
		e.err = fmt.Errorf("%s: empty entry", g.Pkg)
	case slices.Contains(fields, ""):
		e.err = fmt.Errorf("%s: empty field in %q", g.Pkg, s)
	case !known:
		valid := make([]string, 0, len(g.Fields))
		for k := range g.Fields {
			valid = append(valid, k)
		}
		slices.Sort(valid)
		e.err = fmt.Errorf("%s: unknown kind %q (valid: %s)", g.Pkg, e.Kind, strings.Join(valid, "|"))
	case len(e.Args) > len(names):
		e.err = fmt.Errorf("%s: %s takes at most %d argument(s), %q gives %d", g.Pkg, e.Kind, len(names), s, len(e.Args))
	}
	return e
}

// Fill converts e's arguments in order into dsts, each a *float64 or an
// *int pointing into *v; an argument not given leaves its destination,
// which holds the kind's default, alone. It returns *v once it
// validates, else the zero T and the first error.
func Fill[T interface{ Validate() error }](e Entry, v *T, dsts ...any) (T, error) {
	var zero T
	if e.err != nil {
		return zero, e.err
	}
	for i, arg := range e.Args {
		var err error
		switch dst := dsts[i].(type) {
		case *float64:
			*dst, err = strconv.ParseFloat(arg, 64)
		case *int:
			*dst, err = strconv.Atoi(arg)
		}
		if err != nil {
			return zero, fmt.Errorf("%s: %s %s %q: %w", e.g.Pkg, e.Kind, e.g.Fields[e.Kind][i], arg, errors.Unwrap(err))
		}
	}
	if err := (*v).Validate(); err != nil {
		return zero, err
	}
	return *v, nil
}

// List parses the sep-separated entries of s with parse. A wholly blank
// s is the empty list; an empty entry in a non-blank s is an error
// (parse meets it as a blank entry).
func List[T any](s, sep string, parse func(string) (T, error)) ([]T, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []T
	for _, entry := range strings.Split(s, sep) {
		v, err := parse(entry)
		if err != nil {
			return nil, fmt.Errorf("%w (in %q)", err, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// None reports whether s spells "nothing configured" for a spec that has
// that meaning (codec, stack, server optimizer): wholly blank, or the
// bare word none.
func None(s string) bool {
	s = strings.TrimSpace(s)
	return s == "" || s == "none"
}
