// Package chaos is a deterministic fault-injecting TCP proxy for the
// flserver wire protocol. It sits between workers and the server
// (cmd/chaosproxy) and perturbs the byte stream at frame granularity:
// connection resets, stalls, frame truncation, added latency, and frame
// reordering. Unlike internal/fault — which models *client* failures
// inside the simulation's virtual clock — chaos attacks the real
// transport underneath fl.Serve, which is exactly what the failover
// machinery (DESIGN.md §12) exists to survive.
//
// Every decision is drawn from internal/rng streams derived from the
// proxy seed per connection and direction, so a chaos run is replayable:
// the same seed against the same connection arrival order injects the
// same faults at the same frames.
package chaos

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/wire"
)

// Kind names one transport failure mode.
type Kind string

const (
	// KindReset closes both sides of the connection mid-stream (a peer
	// RST). The server routes the dead worker through failover; the
	// worker sees a read error and may re-dial.
	KindReset Kind = "reset"
	// KindSlow sleeps Param seconds before forwarding a frame (tail
	// latency on the real clock; modeled time is unaffected).
	KindSlow Kind = "slow"
	// KindTruncate forwards only the first half of a frame and then
	// resets — the receiver's frame decoder must fail loudly, never
	// misparse.
	KindTruncate Kind = "truncate"
	// KindPartition stalls the direction for Param seconds (a transient
	// network partition; long stalls trip the server's heartbeat).
	KindPartition Kind = "partition"
	// KindReorder holds a frame back and delivers it after the next one.
	// The wire protocol is order-sensitive, so receivers surface this as
	// a protocol error on streams where it matters.
	KindReorder Kind = "reorder"
)

// Spec declares one chaos fault: per-frame probability plus the
// kind-specific parameter (seconds for slow/partition).
type Spec struct {
	Kind  Kind
	Frac  float64
	Param float64
}

// Validate reports malformed specs.
func (s Spec) Validate() error {
	if !(s.Frac > 0 && s.Frac <= 1) {
		return fmt.Errorf("chaos: %s frac %v must be in (0,1]", s.Kind, s.Frac)
	}
	switch s.Kind {
	case KindReset, KindTruncate, KindReorder:
	case KindSlow, KindPartition:
		if !(s.Param > 0) || math.IsInf(s.Param, 0) {
			return fmt.Errorf("chaos: %s delay %v must be a finite value > 0", s.Kind, s.Param)
		}
	default:
		return fmt.Errorf("chaos: unknown kind %q (valid: reset, slow, truncate, partition, reorder)", s.Kind)
	}
	return nil
}

// String renders the spec in Parse syntax.
func (s Spec) String() string {
	switch s.Kind {
	case KindSlow, KindPartition:
		return fmt.Sprintf("%s:%g:%g", s.Kind, s.Frac, s.Param)
	default:
		return fmt.Sprintf("%s:%g", s.Kind, s.Frac)
	}
}

// grammar is the chaos kind table: the arguments each kind takes.
var grammar = spec.Grammar{Pkg: "chaos", Fields: map[string][]string{
	"reset": {"frac"}, "truncate": {"frac"}, "reorder": {"frac"},
	"slow": {"frac", "param"}, "partition": {"frac", "param"},
}}

// Parse parses one spec in the CLI syntax "kind[:frac[:param]]"
// (DESIGN.md §6's spec grammar), mirroring fault.ParseFault:
//
//	reset:0.01          1% of frames reset the connection
//	slow:0.3:0.05       30% of frames are delayed 50ms
//	truncate:0.02       2% of frames are cut mid-body, then reset
//	partition:0.005:2   0.5% of frames stall the direction for 2s
//	reorder:0.1         10% of frames are swapped with their successor
func Parse(s string) (Spec, error) {
	e := grammar.Entry(s)
	out := Spec{Kind: Kind(e.Kind), Frac: 0.1}
	switch out.Kind {
	case KindSlow:
		out.Param = 0.05
	case KindPartition:
		out.Param = 1
	}
	return spec.Fill(e, &out, &out.Frac, &out.Param)
}

// ParseList parses a comma-separated list of specs.
func ParseList(s string) ([]Spec, error) {
	return spec.List(s, ",", Parse)
}

// Proxy forwards framed connections to an upstream address, injecting
// the configured faults. Per-frame fault draws come from rng streams
// derived per (connection index, direction), consumed one per spec per
// frame in spec order — so which frames are hit depends only on the
// seed, the spec list, and each connection's own frame sequence, never
// on goroutine scheduling.
type Proxy struct {
	ln       net.Listener
	upstream string
	specs    []Spec

	mu    sync.Mutex
	root  *rng.RNG
	conns int
	wg    sync.WaitGroup
	done  chan struct{}
}

// New builds a proxy that accepts on ln and forwards to upstream.
func New(ln net.Listener, upstream string, specs []Spec, seed uint64) *Proxy {
	return &Proxy{
		ln:       ln,
		upstream: upstream,
		specs:    specs,
		root:     rng.New(seed),
		done:     make(chan struct{}),
	}
}

// Run accepts and forwards connections until Close (or a listener
// error). Each accepted connection gets an upstream dial and two framed
// pipes; a dial failure closes the inbound connection and keeps
// accepting.
func (p *Proxy) Run() error {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return nil
			default:
				return err
			}
		}
		u, err := net.Dial("tcp", p.upstream)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		i := p.conns
		p.conns++
		toUp := p.root.Derive("chaos", 2*i)
		toDown := p.root.Derive("chaos", 2*i+1)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(c, u, toUp)
		go p.pipe(u, c, toDown)
	}
}

// Close stops accepting and tears down the forwarding goroutines (their
// connections close when either side does).
func (p *Proxy) Close() error {
	close(p.done)
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

// pipe forwards frames src→dst, applying the fault specs to each frame.
// A clean EOF half-closes the forward direction so the reverse pipe can
// keep draining (the peers decide when the connection dies); injected
// resets and truncations hard-close both sides — that is the failure
// being simulated.
func (p *Proxy) pipe(src, dst net.Conn, r *rng.RNG) {
	defer p.wg.Done()
	abort := func() {
		src.Close()
		dst.Close()
	}
	var fr wire.Frame
	var frame, held []byte
	haveHeld := false
	for {
		if err := wire.ReadFrame(src, &fr); err != nil {
			if haveHeld {
				_, _ = dst.Write(held)
			}
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			} else {
				dst.Close()
			}
			if tc, ok := src.(*net.TCPConn); ok {
				tc.CloseRead()
			} else {
				src.Close()
			}
			return
		}
		frame = wire.BeginFrame(frame[:0], fr.Type)
		frame = append(frame, fr.Body...)
		wire.EndFrame(frame, 0)

		reorder := false
		for _, sp := range p.specs {
			// One draw per spec per frame, hit or miss, so the stream
			// position is a pure function of the frame index.
			if r.Float64() >= sp.Frac {
				continue
			}
			switch sp.Kind {
			case KindReset:
				abort()
				return
			case KindSlow, KindPartition:
				time.Sleep(time.Duration(sp.Param * float64(time.Second)))
			case KindTruncate:
				_, _ = dst.Write(frame[:len(frame)/2])
				abort()
				return
			case KindReorder:
				reorder = true
			}
		}
		if reorder && !haveHeld {
			held = append(held[:0], frame...)
			haveHeld = true
			continue
		}
		if _, err := dst.Write(frame); err != nil {
			abort()
			return
		}
		if haveHeld {
			haveHeld = false
			if _, err := dst.Write(held); err != nil {
				abort()
				return
			}
		}
	}
}
