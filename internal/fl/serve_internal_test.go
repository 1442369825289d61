package fl

import (
	"math"
	"net"
	"testing"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/wire"
)

// wireAvg is a minimal wire-safe algorithm for internal serve tests
// (package fl cannot import internal/baselines — cycle).
type wireAvg struct{ Base }

func (wireAvg) Name() string                             { return "WireAvg" }
func (wireAvg) Aggregate(s *ServerCtx, updates []Update) { FedAvgStep(s, updates) }
func (wireAvg) WireSafe()                                {}

// TestServeBackpressureHolds drives a loopback run with IntakeBound 1 —
// every multi-update ingest overflows the bound — and asserts the server
// actually sent Hold frames, the force-resume liveness rule released
// them (the run completes), and the result still matches the in-process
// run bit-for-bit: backpressure is flow control, never data loss.
func TestServeBackpressureHolds(t *testing.T) {
	train, test, err := dataset.Standard("adult", dataset.ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, 8, 0.5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	network, err := dataset.Model("adult")
	if err != nil {
		t.Fatal(err)
	}
	shards := part.Shards(train)
	cfg := Config{Rounds: 3, LocalSteps: 3, BatchSize: 16, LocalLR: 0.05, Seed: 11}

	local, err := Run(cfg, wireAvg{}, network, shards, test)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var ex *remoteExec
	serveObserve = func(e *remoteExec) { ex = e }
	defer func() { serveObserve = nil }()

	workerErr := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			workerErr <- err
			return
		}
		workerErr <- RunWorker(conn, 0, 1, cfg, wireAvg{}, network, shards, test.Name)
	}()

	res, err := Serve(ln, ServeOptions{Workers: 1, IntakeBound: 1}, cfg, wireAvg{}, network, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-workerErr; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if ex == nil {
		t.Fatal("serve hook never fired")
	}
	if ex.Holds() == 0 {
		t.Fatal("IntakeBound 1 never triggered a Hold frame")
	}
	for i := range local.FinalParams {
		if res.FinalParams[i] != local.FinalParams[i] {
			t.Fatalf("FinalParams[%d]: wire %v != local %v under backpressure", i, res.FinalParams[i], local.FinalParams[i])
		}
	}
}

// TestIngestRejectsHostileDense sends Updates frames whose dense payload
// is too short, too long, or of another form: each is rejected, and the
// pending ring entry's delta keeps its canary — a hostile frame never
// writes into a pending entry. The well-formed frame then lands.
func TestIngestRejectsHostileDense(t *testing.T) {
	const d = 12
	e := newRemoteExec(newRingPool(d), compress.Spec{}, 1, d, ServeOptions{Workers: 1}, 3)
	sc := &serveConn{index: 0}
	e.conns[0] = sc
	u := e.ring.getUpload()
	e.pend[0] = u
	canary := math.Float64frombits(0x7ff8_0000_cafe_f00d)
	for i := range u.delta {
		u.delta[i] = canary
	}
	vals := make([]float64, d+1)
	for i := range vals {
		vals[i] = float64(i) - 0.25
	}
	topk := compress.Payload{Form: compress.KindTopK, N: d, Idx: []int32{3}, Val: []float64{1}}
	frame := func(up *Update) []byte {
		return appendUpdateEntry(wire.AppendUvarint(nil, 1), up, 0.5)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"too short", frame(&Update{Delta: vals[:d-1]})},
		{"too long", frame(&Update{Delta: vals})},
		{"topk form", frame(&Update{Payload: &topk})},
		{"truncated", frame(&Update{Delta: vals[:d]})[:8*d]},
	} {
		if err := e.ingest(sc, c.body); err == nil {
			t.Fatalf("%s: hostile dense upload accepted", c.name)
		}
		if e.arrived[0] {
			t.Fatalf("%s: rejected upload marked as arrived", c.name)
		}
		for i, v := range u.delta {
			if math.Float64bits(v) != math.Float64bits(canary) {
				t.Fatalf("%s: rejected upload wrote delta[%d] = %v", c.name, i, v)
			}
		}
	}
	if err := e.ingest(sc, frame(&Update{Delta: vals[:d], TrainLoss: 0.75})); err != nil {
		t.Fatal(err)
	}
	if !e.arrived[0] || u.loss != 0.75 || u.measured != 0.5 {
		t.Fatalf("well-formed upload: arrived %v loss %v measured %v", e.arrived[0], u.loss, u.measured)
	}
	for i, v := range u.delta {
		if v != vals[i] {
			t.Fatalf("well-formed upload: delta[%d] = %v, want %v", i, v, vals[i])
		}
	}
}
