package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
)

// Grid declares one experiment as data. Its cells are the cross product
// of the row axes and the column axes; each cell is one cached training
// run (Runner.cell) that Cell formats into the table. A grid with Figures
// renders each row as figures instead.
type Grid struct {
	// ID namespaces the cells' cache keys: grids that read the same runs
	// share one.
	ID    string
	Title string
	// Columns heads the table: the row axes' labels, then the cells'.
	Columns []string
	// Head, when set, appends each grid column's headers, read off its
	// first-row cell.
	Head       func(*Cell) []string
	Rows, Cols []Axis
	// Mutate edits every cell's Setup after its levels and round budget.
	Mutate func(*Setup)
	// Cell formats one run.
	Cell func(*Cell) []string
	// Tail, when set, appends cells computed from the whole row.
	Tail    func(row []*Cell) []string
	Figures func(row []*Cell) []Artifact
	Notes   []string
	// Observe, when set, computes notes from the cells, after Notes: what
	// the grid shows, where a hand-written note could only say what was
	// expected. rows holds each table row's levels.
	Observe func(rows [][]Level, cells [][]*Cell) []string
}

// roundBudgets is the round budget at each scale of the grids listed by
// ID, in place of their datasets' profile: each shares dozens of runs, or
// trains a large fleet, so each run stays small.
var roundBudgets = map[string][ScaleFull + 1]int{
	"compression": {ScaleBench: 5, ScaleQuick: 10, ScaleFull: 16},
	"faults":      {ScaleBench: 5, ScaleQuick: 10, ScaleFull: 20},
	"straggler":   {ScaleBench: 5, ScaleQuick: 10, ScaleFull: 20},
	"robustness":  {ScaleBench: 5, ScaleQuick: 8, ScaleFull: 16},
	"fedopt":      {ScaleBench: 5, ScaleQuick: 8, ScaleFull: 16},
	"scale1k":     {ScaleBench: 5, ScaleQuick: 8, ScaleFull: 8},
	"scale100k":   {ScaleBench: 4, ScaleQuick: 6, ScaleFull: 6},
}

// Axis is one dimension of a grid.
type Axis []Level

// Level is one value of an axis. Data and Method name the cell's dataset
// and method (a later level overrides an earlier one), and Set edits its
// Setup. Label leads the row for a row axis; when Set is present it also
// joins the cache key.
type Level struct {
	Label, Data, Method string
	Set                 func(*Setup)
	// MinScale leaves the level out below that scale.
	MinScale Scale
}

// Cell is one trained grid point.
type Cell struct {
	Setup
	*fl.Result
	// Top is the cell atop this one's grid column.
	Top *Cell
	// prior is the cell's test set's; shown records that the cell printed
	// an accuracy, so its grid notes the prior.
	prior *prior
	shown bool
}

// prior is a test set's class counts and size: a one-class predictor of
// class k scores counts[k]/n.
type prior struct {
	counts []int
	n      float64
}

// pct is report.Pct of a round's accuracy, marked ≡ when atPrior.
func (c *Cell) pct(rec metrics.Round) string {
	c.shown = true
	if c.atPrior(rec) {
		return report.Pct(rec.Accuracy) + "≡"
	}
	return report.Pct(rec.Accuracy)
}

// atPrior reports whether a round's model scores as a one-class predictor
// within one test sample: its most predicted class takes all test
// predictions but at most one, and its accuracy lies within one sample of
// some class's share.
func (c *Cell) atPrior(rec metrics.Round) bool {
	n := c.prior.n
	if math.Abs(math.Round(rec.TopClassShare*n)-n) > 1 {
		return false
	}
	for _, k := range c.prior.counts {
		if math.Abs(math.Round(rec.Accuracy*n)-float64(k)) <= 1 {
			return true
		}
	}
	return false
}

// final is the run's last round record, and best the first one at its
// best accuracy: the records behind FinalAccuracy and BestAccuracy (zero
// when the run has none).
func (c *Cell) final() (rec metrics.Round) {
	if n := len(c.Run.Rounds); n > 0 {
		rec = c.Run.Rounds[n-1]
	}
	return rec
}

func (c *Cell) best() (rec metrics.Round) {
	for _, r := range c.Run.Rounds {
		if r.Accuracy > rec.Accuracy {
			rec = r
		}
	}
	return rec
}

// priorNotes states, for each dataset whose accuracy the cells printed,
// the majority class's share of the test set (and the minority's for a
// binary set): what a one-class predictor scores.
func priorNotes(cells [][]*Cell) (notes []string) {
	seen := map[string]bool{}
	for _, c := range slices.Concat(cells...) {
		if ds, p := c.Profile.Dataset, c.prior; c.shown && !seen[ds] {
			seen[ds] = true
			note := fmt.Sprintf("prior: %s majority %s", ds, report.Pct(float64(slices.Max(p.counts))/p.n))
			if len(p.counts) == 2 {
				note += ", minority " + report.Pct(float64(slices.Min(p.counts))/p.n)
			}
			notes = append(notes, note)
		}
	}
	if notes != nil {
		notes = append(notes, "prior: ≡ marks a cell within one test sample of a one-class predictor")
	}
	return notes
}

// Run trains every cell of the grid and renders it.
func (g *Grid) Run(r *Runner) ([]Artifact, error) {
	rows, cols := cross(g.Rows, r.Scale), cross(g.Cols, r.Scale)
	cells := make([][]*Cell, len(rows))
	for i, row := range rows {
		for j, col := range cols {
			c, err := r.cell(g, append(slices.Clip(row), col...))
			if err != nil {
				return nil, err
			}
			c.Top = c
			if i > 0 {
				c.Top = cells[0][j]
			}
			cells[i] = append(cells[i], c)
		}
	}
	var out []Artifact
	if g.Figures != nil {
		for _, row := range cells {
			out = append(out, g.Figures(row)...)
		}
		return out, nil
	}
	t := &report.Table{Title: g.Title, Columns: slices.Clip(g.Columns), Notes: g.Notes}
	if g.Head != nil {
		for _, c := range cells[0] {
			t.Columns = append(t.Columns, g.Head(c)...)
		}
	}
	for i, row := range cells {
		var line []string
		for _, l := range rows[i] {
			line = append(line, l.Label)
		}
		for _, c := range row {
			line = append(line, g.Cell(c)...)
		}
		if g.Tail != nil {
			line = append(line, g.Tail(row)...)
		}
		t.AddRow(line...)
	}
	if g.Observe != nil {
		t.Notes = append(slices.Clip(t.Notes), g.Observe(rows, cells)...)
	}
	t.Notes = append(slices.Clip(t.Notes), priorNotes(cells)...)
	return append(out, t), nil
}

// cross lists the points of the axes' cross product, the first axis
// outermost, without the levels the scale leaves out.
func cross(axes []Axis, s Scale) [][]Level {
	points := [][]Level{nil}
	for _, a := range axes {
		var next [][]Level
		for _, p := range points {
			for _, l := range a {
				if s >= l.MinScale {
					next = append(next, append(slices.Clip(p), l))
				}
			}
		}
		points = next
	}
	return points
}

// methods and datasets are axes over the named methods and datasets.
func methods(names ...string) Axis  { return named(names, func(l *Level) { l.Method = l.Label }) }
func datasets(names ...string) Axis { return named(names, func(l *Level) { l.Data = l.Label }) }

func named(names []string, set func(*Level)) Axis {
	a := make(Axis, len(names))
	for i, n := range names {
		a[i].Label = n
		set(&a[i])
	}
	return a
}

// levels is an axis over vals, each labelled by format and applied by set.
func levels[T any](format string, vals []T, set func(*Setup, T)) Axis {
	a := make(Axis, len(vals))
	for i, v := range vals {
		a[i] = Level{Label: fmt.Sprintf(format, v), Set: func(s *Setup) { set(s, v) }}
	}
	return a
}

// acc is a run's final accuracy, or "×" if it diverged.
func acc(c *Cell) string {
	if c.Run.Diverged {
		return "×"
	}
	return c.pct(c.final())
}

func accCell(c *Cell) []string { return []string{acc(c)} }

// leaders names column j's cells at the best final accuracy, in row order,
// and returns the first of them; a diverged cell loses to every other.
func leaders(cells [][]*Cell, j int) (names []string, lead *Cell) {
	score := func(c *Cell) float64 {
		if c.Run.Diverged {
			return math.Inf(-1)
		}
		return c.Run.FinalAccuracy()
	}
	for _, row := range cells {
		switch c := row[j]; {
		case lead == nil || score(c) > score(lead):
			lead, names = c, []string{c.Method}
		case score(c) == score(lead):
			names = append(names, c.Method)
		}
	}
	return names, lead
}

// must unwraps the parse of a spec literal: a bad one is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
