package report

import (
	"slices"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	for _, c := range []struct {
		name    string
		columns []string
		rows    [][]string
	}{
		{"ascii", []string{"Method", "Acc"}, [][]string{{"FedAvg", "78.88%"}, {"TACO", "83.80%"}}},
		// Cells the experiments print: a diverged run, mean±std, the γ and
		// κ axes, and a detector that flagged nobody.
		{"non-ascii", []string{"γ", "κ", "Acc", "α"}, [][]string{
			{"0.1", "0.6", "×", "0.12±0.03"},
			{"1", "1.0", "83.80%", "— (0 flagged)"},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tbl := &Table{Title: "Demo", Columns: c.columns, Notes: []string{"a note"}}
			for _, row := range c.rows {
				tbl.AddRow(row...)
			}
			s := tbl.String()
			for _, frag := range append([]string{"Demo", "note: a note"}, c.rows[1]...) {
				if !strings.Contains(s, frag) {
					t.Fatalf("render missing %q:\n%s", frag, s)
				}
			}
			// Column alignment: header, separator and rows put their pipes
			// at the same character positions.
			lines := strings.Split(strings.TrimSpace(s), "\n")
			want := pipes(lines[1])
			for _, line := range lines[2 : 3+len(c.rows)] {
				if got := pipes(line); !slices.Equal(got, want) {
					t.Fatalf("misaligned table: pipes at %v, header at %v:\n%s", got, want, s)
				}
			}
		})
	}
}

// pipes lists the rune offsets of the '|' characters in line.
func pipes(line string) []int {
	var at []int
	for i, r := range []rune(line) {
		if r == '|' {
			at = append(at, i)
		}
	}
	return at
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{
		Title:  "Curve",
		XLabel: "round",
		YLabel: "acc",
		Series: []Series{{Label: "TACO", X: []float64{1, 2}, Y: []float64{0.5, 0.6}}},
		Notes:  []string{"shape"},
	}
	s := fig.String()
	for _, frag := range []string{"Curve", `series "TACO"`, "0.6000", "note: shape"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("figure missing %q:\n%s", frag, s)
		}
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1}, 0, 1)
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline length %d, want 3", len([]rune(s)))
	}
	if Sparkline(nil, 0, 1) != "" {
		t.Fatal("empty sparkline must be empty")
	}
	// Degenerate range must not panic or divide by zero.
	if s := Sparkline([]float64{1, 1}, 1, 1); len([]rune(s)) != 2 {
		t.Fatal("degenerate range sparkline wrong length")
	}
	// Out-of-range values clamp.
	s = Sparkline([]float64{-10, 10}, 0, 1)
	runes := []rune(s)
	if runes[0] != '▁' || runes[1] != '█' {
		t.Fatalf("clamping failed: %q", s)
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(0.7888); got != "78.88%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := Sec(1.2345); got != "1.234s" && got != "1.235s" {
		t.Fatalf("Sec = %q", got)
	}
}
