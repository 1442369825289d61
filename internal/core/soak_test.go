package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/fl"
)

// soakProbe is TACO that, at the rounds listed in at, records the byte
// length of its checkpoint state and the process's goroutine count.
type soakProbe struct {
	*TACO
	t          *testing.T
	at         []int
	bytes      []int
	goroutines []int
}

func (p *soakProbe) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	p.TACO.Aggregate(s, updates)
	for _, r := range p.at {
		if s.Round+1 != r {
			continue
		}
		var buf bytes.Buffer
		if err := p.SaveState(&buf); err != nil {
			p.t.Fatal(err)
		}
		p.bytes = append(p.bytes, buf.Len())
		p.goroutines = append(p.goroutines, runtime.NumGoroutine())
	}
}

// TestTACOStateFlatOverRounds: nothing TACO keeps grows with the round
// count. A 5 000-round run over 100 clients saves the same number of
// state bytes, and runs the same number of goroutines, at round 1 000 as
// at round 5 000. A per-round α snapshot would add 4 000·100·8 B.
func TestTACOStateFlatOverRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 5 000 rounds")
	}
	net, shards, test := tacoSetup(t, 100)
	cfg := fl.Config{Rounds: 5000, LocalSteps: 1, BatchSize: 4, LocalLR: 0.03, Seed: 3,
		ParticipationFraction: 0.1, EvalEvery: 500}
	p := &soakProbe{TACO: New(Recommended()), t: t, at: []int{1000, 5000}}
	if _, err := fl.Run(cfg, p, net, shards, test); err != nil {
		t.Fatal(err)
	}
	if len(p.bytes) != 2 {
		t.Fatalf("probed %d rounds, want 2", len(p.bytes))
	}
	if p.bytes[0] != p.bytes[1] {
		t.Fatalf("state bytes %d at round 1000, %d at round 5000", p.bytes[0], p.bytes[1])
	}
	if p.goroutines[0] != p.goroutines[1] {
		t.Fatalf("goroutines %d at round 1000, %d at round 5000", p.goroutines[0], p.goroutines[1])
	}
}
