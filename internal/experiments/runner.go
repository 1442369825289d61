package experiments

import (
	"cmp"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/simclock"
)

// AlgorithmNames lists the compared methods in the paper's column order.
func AlgorithmNames() []string {
	return []string{"FedAvg", "FedProx", "FG", "Scaffold", "STEM", "FedACG", "TACO"}
}

// NewAlgorithm constructs a fresh instance of the named algorithm with the
// paper's default hyper-parameters (Section V-A): ζ=0.1, α=1, α_t=0.2,
// β=0.001, and TACO's γ=1/K, κ=0.6, λ=T/5.
func NewAlgorithm(name string) (fl.Algorithm, error) {
	switch name {
	case "FedAvg":
		return baselines.NewFedAvg(), nil
	case "FedProx":
		return baselines.NewFedProx(0.1), nil
	case "FG":
		return baselines.NewFoolsGold(), nil
	case "Scaffold":
		return baselines.NewScaffold(1), nil
	case "STEM":
		return baselines.NewSTEM(0.2), nil
	case "FedACG":
		return baselines.NewFedACG(0.001), nil
	case "TACO":
		return core.New(core.Recommended()), nil
	case "FedProx(TACO)":
		return core.NewFedProxTACO(0.1), nil
	case "Scaffold(TACO)":
		return core.NewScaffoldTACO(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", name)
	}
}

// Runner executes experiments at one scale with a shared run cache, so
// grids that read the same training runs (Table V and Fig. 2, 4, 5 and 6
// all read the sweep) pay for them once per process.
type Runner struct {
	Scale Scale
	// Seed is the base seed; every run derives from it deterministically.
	Seed uint64
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer

	mu     sync.Mutex
	cache  map[string]*fl.Result
	priors map[string]*prior // by dataset/seed
}

// NewRunner creates a Runner with the default base seed.
func NewRunner(scale Scale) *Runner {
	return &Runner{Scale: scale, Seed: 1}
}

// Setup is one grid cell's training run before it starts.
type Setup struct {
	Scale  Scale
	Seed   uint64
	Method string
	// Profile is the cell's dataset profile at Scale, as the grid edits it.
	Profile Profile
	// Config holds the engine knobs the profile does not fix. Its Rounds,
	// LocalSteps, BatchSize, LocalLR and Seed are the profile's.
	Config fl.Config
	// TACO builds the algorithm when Method is "TACO".
	TACO core.Config

	net *nn.Network
}

// nominal is one modeled plain-SGD round of the cell's model: the unit of
// the deadline policy's cut and of the extreme fleet's availability period.
func (s *Setup) nominal() float64 {
	return simclock.RoundSeconds(s.net.GradFlops(s.Profile.BatchSize), s.Profile.LocalSteps, simclock.Plain())
}

// cell builds the Setup that one grid point describes and trains it. The
// run is cached under the grid's ID, the dataset, the method and the label
// of every level that edits the Setup, so a cell with the same key in any
// grid reuses it.
func (r *Runner) cell(g *Grid, point []Level) (*Cell, error) {
	s := Setup{Scale: r.Scale, Seed: r.Seed, TACO: core.Recommended()}
	var data string
	for _, l := range point {
		data = cmp.Or(l.Data, data)
		s.Method = cmp.Or(l.Method, s.Method)
	}
	var err error
	if s.Profile, err = ProfileFor(data, r.Scale); err != nil {
		return nil, err
	}
	if s.net, err = s.Profile.Model(); err != nil {
		return nil, err
	}
	key := g.ID + "/" + data + "/" + s.Method
	for _, l := range point {
		if l.Set != nil {
			l.Set(&s)
			key += "/" + l.Label
		}
	}
	if b, ok := roundBudgets[g.ID]; ok {
		s.Profile.Rounds = b[s.Scale]
	}
	if g.Mutate != nil {
		g.Mutate(&s)
	}
	c := &Cell{Setup: s}
	pk := fmt.Sprintf("%s/%d", s.Profile.Dataset, s.Seed)
	r.mu.Lock()
	c.Result, c.prior = r.cache[key], r.priors[pk]
	r.mu.Unlock()
	if c.Result != nil {
		return c, nil
	}
	p, shards, test, _, err := s.Profile.Materialize(s.Seed)
	if err != nil {
		return nil, err
	}
	cfg := s.Config
	cfg.Rounds, cfg.LocalSteps, cfg.BatchSize, cfg.LocalLR, cfg.Seed = p.Rounds, p.LocalSteps, p.BatchSize, p.LocalLR, p.Seed
	var alg fl.Algorithm
	if s.Method == "TACO" {
		alg = core.New(s.TACO)
	} else if alg, err = NewAlgorithm(s.Method); err != nil {
		return nil, err
	}
	start := time.Now()
	if c.Result, err = fl.Run(cfg, alg, s.net, shards, test); err != nil {
		return nil, fmt.Errorf("run %s: %w", key, err)
	}
	if r.Progress != nil {
		status := ""
		if c.Run.Diverged {
			status = fmt.Sprintf(" DIVERGED@%d", c.Run.DivergedRound)
		}
		fmt.Fprintf(r.Progress, "  [%s] final=%.4f best=%.4f (%.1fs)%s\n",
			key, c.Run.FinalAccuracy(), c.Run.BestAccuracy(), time.Since(start).Seconds(), status)
	}
	r.mu.Lock()
	if r.cache == nil {
		r.cache, r.priors = make(map[string]*fl.Result), make(map[string]*prior)
	}
	r.cache[key] = c.Result
	if r.priors[pk] == nil {
		r.priors[pk] = &prior{counts: make([]int, test.Classes), n: float64(test.Len())}
		for _, y := range test.Y {
			r.priors[pk].counts[y]++
		}
	}
	c.prior = r.priors[pk]
	r.mu.Unlock()
	return c, nil
}
