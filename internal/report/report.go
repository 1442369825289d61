// Package report renders the reproduced tables and figures as text. Every
// experiment runner in internal/experiments produces a Table or Series
// bundle, which these helpers print in the row/column layout of the
// corresponding paper artifact.
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are printed after the table body, one per line.
	Notes []string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(cell))
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			parts[i] = pad(cell, width)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(t.Columns)
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// pad right-fills s with spaces to width characters (runes, not bytes:
// cells such as "×" or "0.12±0.03" take one column per rune).
func pad(s string, width int) string {
	if n := utf8.RuneCountInString(s); n < width {
		return s + strings.Repeat(" ", width-n)
	}
	return s
}

// Series is one labelled curve of a reproduced figure: y values over x.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a set of curves plus axis labels, rendered as aligned columns
// (one block per series) so the curve shapes can be compared numerically.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render writes every series as "x y" rows grouped by label.
func (f *Figure) Render(w io.Writer) {
	if f.Title != "" {
		fmt.Fprintf(w, "%s\n", f.Title)
	}
	for _, s := range f.Series {
		fmt.Fprintf(w, "series %q (%s -> %s):\n", s.Label, f.XLabel, f.YLabel)
		for i := range s.X {
			fmt.Fprintf(w, "  %12.4f %12.4f\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// String renders the figure to a string.
func (f *Figure) String() string {
	var b strings.Builder
	f.Render(&b)
	return b.String()
}

// Sparkline summarizes a curve as a compact unicode strip, handy for quick
// CLI inspection of accuracy trajectories.
func Sparkline(ys []float64, lo, hi float64) string {
	if len(ys) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	if hi <= lo {
		hi = lo + 1
	}
	var b strings.Builder
	for _, y := range ys {
		f := (y - lo) / (hi - lo)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		idx := int(f * float64(len(levels)-1))
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// Pct formats a fraction as a percentage with two decimals ("78.88%").
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// Sec formats seconds with three decimals.
func Sec(v float64) string { return fmt.Sprintf("%.3fs", v) }
