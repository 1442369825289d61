package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/fl"
)

// refTACOAggregate is Eq. (9)'s weights and Eq. (10)'s inspection written
// from the formulas with plain loops. Given the coefficients α_i the
// round's Eq. (7) update left (alpha, by client), it returns the
// normalised weight of each update,
//
//	w_i = max(α_i, AggFloor) · damp(s_i) / Σ_j max(α_j, AggFloor) · damp(s_j),
//	damp(s) = 1/√(1+s),
//
// uniform 1/m when Σ ≤ 1e-12 or under DisableTailoredAggregation, and
// advances strikes, one per update (a client with two updates in one
// buffered step is struck twice), returning the clients whose strikes
// reach λ: an update strikes its client when α ≥ κ, and a struck client
// with λ or more strikes is expelled.
// Do not modernize: this is the oracle the production path is held to.
func refTACOAggregate(cfg Config, alpha []float64, clients, staleness []int, strikes []int) (w []float64, expelled []int) {
	m := len(clients)
	w = make([]float64, m)
	sum := 0.0
	for i := 0; i < m; i++ {
		a := alpha[clients[i]]
		if a < cfg.AggFloor {
			a = cfg.AggFloor
		}
		w[i] = a * (1 / math.Sqrt(1+float64(staleness[i])))
		sum += w[i]
	}
	for i := 0; i < m; i++ {
		if sum > 1e-12 && !cfg.DisableTailoredAggregation {
			w[i] = w[i] / sum
		} else {
			w[i] = 1 / float64(m)
		}
	}
	if !cfg.DetectFreeloaders {
		return w, nil
	}
	for i := 0; i < m; i++ {
		c := clients[i]
		if alpha[c] >= cfg.Kappa {
			strikes[c]++
			if strikes[c] >= cfg.MaxStrikes {
				expelled = append(expelled, c)
			}
		}
	}
	return w, expelled
}

// TestAggregateMatchesOracle holds TACO.Aggregate to refTACOAggregate over
// 360 random rounds in six configurations (floor 0 or 0.2, smoothing 0 or
// 0.5, tailored aggregation on and off, κ and λ varied): the weights it
// reports must equal the oracle's bit for bit, and its strike counts and
// expelled set the oracle's exactly. Rounds are synchronous (one update
// per client, staleness 0) or async buffers (staleness up to 5, a client
// may upload several times); some rounds send near-identical deltas, so
// α crosses κ and clients are struck and expelled, and some send all-zero
// deltas, so α is 0 everywhere and a floorless Σ falls back to uniform.
func TestAggregateMatchesOracle(t *testing.T) {
	const n, d = 6, 5
	configs := []Config{
		{DetectFreeloaders: true, Kappa: 0.6, MaxStrikes: 3},
		{DetectFreeloaders: true, Kappa: 0.5, MaxStrikes: 1, AggFloor: 0.2},
		{DetectFreeloaders: true, Kappa: 0.7, MaxStrikes: 2, AlphaSmoothing: 0.5},
		{DetectFreeloaders: true, Kappa: 0.4, MaxStrikes: 4, AggFloor: 0.2, AlphaSmoothing: 0.5},
		{DetectFreeloaders: true, Kappa: 0.6, MaxStrikes: 2, DisableTailoredAggregation: true},
		{AggFloor: 0.2, DisableTailoredAggregation: true},
	}
	r := rand.New(rand.NewPCG(9, 10))
	var rounds, struck, expels, uniform int
	for ci, cfg := range configs {
		a := New(cfg)
		env := &fl.Env{NumClients: n, NumParams: d, DataSizes: make([]int, n),
			Cfg: fl.Config{Rounds: 60, LocalSteps: 2, BatchSize: 1, LocalLR: 0.1}}
		a.Setup(env)
		strikes := make([]int, n)
		for round := 0; round < 60; round++ {
			var clients, staleness []int
			if r.IntN(2) == 0 {
				for c := 0; c < n; c++ {
					clients, staleness = append(clients, c), append(staleness, 0)
				}
			} else {
				for m := 1 + r.IntN(2*n); m > 0; m-- {
					clients, staleness = append(clients, r.IntN(n)), append(staleness, r.IntN(6))
				}
			}
			base := make([]float64, d)
			for j := range base {
				base[j] = r.NormFloat64()
			}
			kind := r.IntN(4) // 0: all zero, 1: near-identical, else spread
			updates := make([]fl.Update, len(clients))
			for i, c := range clients {
				delta := make([]float64, d)
				for j := range delta {
					switch kind {
					case 0:
					case 1:
						delta[j] = base[j] + 0.01*r.NormFloat64()
					default:
						delta[j] = r.NormFloat64()
					}
				}
				updates[i] = fl.Update{Client: c, Delta: delta, NumSamples: 1, Staleness: staleness[i]}
			}
			w := make([]float64, d)
			server := &fl.ServerCtx{W: w, WPrev: slices.Clone(w), Env: env, Active: make([]bool, n)}
			a.Aggregate(server, updates)

			alpha := a.Alphas()
			wantW, wantExpelled := refTACOAggregate(a.cfg, alpha, clients, staleness, strikes)
			gotW := a.weights[:len(updates)]
			for i := range wantW {
				if math.Float64bits(gotW[i]) != math.Float64bits(wantW[i]) {
					t.Fatalf("config %d round %d: weight %d = %v, oracle %v (clients %v, α %v)", ci, round, i, gotW[i], wantW[i], clients, alpha)
				}
			}
			if got := a.Strikes(); !slices.Equal(got, strikes) {
				t.Fatalf("config %d round %d: strikes %v, oracle %v", ci, round, got, strikes)
			}
			gotSet, wantSet := slices.Clone(server.Expelled()), slices.Clone(wantExpelled)
			slices.Sort(gotSet)
			slices.Sort(wantSet)
			if !slices.Equal(slices.Compact(gotSet), slices.Compact(wantSet)) {
				t.Fatalf("config %d round %d: expelled %v, oracle %v", ci, round, gotSet, wantSet)
			}
			rounds++
			expels += len(wantSet)
			if cfg.AggFloor == 0 && !cfg.DisableTailoredAggregation && !slices.ContainsFunc(clients, func(c int) bool { return alpha[c] != 0 }) {
				uniform++
			}
		}
		for _, s := range strikes {
			struck += s
		}
	}
	if rounds < 300 || struck == 0 || expels == 0 || uniform == 0 {
		t.Fatalf("%d rounds, %d strikes, %d expulsions, %d all-zero-α rounds without a floor: the oracle left a path unexercised", rounds, struck, expels, uniform)
	}
}
