package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Artifact is a rendered reproduction of one paper table or figure.
type Artifact interface {
	Render(w io.Writer)
}

// Runnable produces one experiment's artifacts given a Runner.
type Runnable func(*Runner) ([]Artifact, error)

// registry maps experiment ids to runners: a grid's Run, or one of the
// three tables that train nothing through the grid (Table I and III time
// and cost the methods, Table II reads TACO's α history). Fig. 1 and
// Fig. 3 are conceptual diagrams with no data; their geometry is
// property-tested in internal/core instead.
var registry = map[string]Runnable{
	"table1": table1,
	"table2": table2,
	"table3": table3,
	"table5": table5.Run,
	"table6": table6.Run,
	"table7": table7.Run,
	"table8": table8.Run,
	"fig2":   fig2.Run,
	"fig4":   fig4.Run,
	"fig5":   fig5.Run,
	"fig6":   fig6.Run,
	"fig7":   fig7.Run,
	// Scenario studies beyond the paper's artifacts.
	"straggler":   straggler.Run,
	"scale1k":     scale1k.Run,
	"scale100k":   scale100k.Run,
	"robustness":  robustness.Run,
	"compression": compression.Run,
	"faults":      faults.Run,
	"fedopt":      fedopt.Run,
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, r *Runner) ([]Artifact, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %v)", id, IDs())
	}
	return f(r)
}
