package fl

import (
	"errors"
	"math"
	"net"
	"testing"

	"repro/internal/compress"
	"repro/internal/rng"
	"repro/internal/wire"
)

// wireAvg is a minimal wire-safe algorithm for internal serve tests
// (package fl cannot import internal/baselines — cycle).
type wireAvg struct{ Base }

func (wireAvg) Name() string                             { return "WireAvg" }
func (wireAvg) Aggregate(s *ServerCtx, updates []Update) { FedAvgStep(s, updates) }
func (wireAvg) WireSafe()                                {}

// TestIngestBoundedByDispatch pins the invariant that bounds the server's
// intake: an Updates entry lands only in the ring entry runRound checked
// out for its client, while that client is in flight, before its update
// has arrived, and on the connection that owns it. An entry for a client
// never dispatched, a second entry for a client whose update already
// arrived, an entry for a client another connection owns, and an entry
// for a client outside the fleet are each rejected, with the cause the
// connection severs under, without writing any ring entry or flipping
// arrived.
func TestIngestBoundedByDispatch(t *testing.T) {
	const d = 6
	// Four clients over two connections: 0 and 1 belong to conn 0, 2 and
	// 3 to conn 1. Clients 0 and 2 are in flight; 1 and 3 never were.
	e := newRemoteExec(newRingPool(d), compress.Spec{}, 4, d, ServeOptions{Workers: 2})
	sc0, sc1 := &serveConn{index: 0}, &serveConn{index: 1}
	e.conns[0], e.conns[1] = sc0, sc1
	canary := math.Float64frombits(0x7ff8_0000_cafe_f00d)
	ring := map[int]*upload{0: e.ring.getUpload(), 2: e.ring.getUpload()}
	for id, u := range ring {
		e.pend[id] = u
		for i := range u.delta {
			u.delta[i] = canary
		}
	}
	entry := func(id int, base float64) []byte {
		vals := make([]float64, d)
		for i := range vals {
			vals[i] = base + float64(i)
		}
		return appendUpdateEntry(wire.AppendUvarint(nil, 1), &Update{Client: id, Delta: vals, TrainLoss: base}, 0.5)
	}
	// want is each ring entry's expected delta[0] and arrived flag.
	want := map[int]float64{0: canary, 2: canary}
	check := func(step string) {
		t.Helper()
		for id, u := range ring {
			if math.Float64bits(u.delta[0]) != math.Float64bits(want[id]) {
				t.Fatalf("%s: client %d delta[0] = %v, want %v", step, id, u.delta[0], want[id])
			}
			if got := math.Float64bits(want[id]) != math.Float64bits(canary); e.arrived[id] != got {
				t.Fatalf("%s: client %d arrived = %v, want %v", step, id, e.arrived[id], got)
			}
		}
		for _, id := range []int{1, 3} {
			if e.arrived[id] || e.pend[id] != nil {
				t.Fatalf("%s: client %d, never dispatched, has arrived %v pend %v", step, id, e.arrived[id], e.pend[id])
			}
		}
	}

	reject := func(step string, sc *serveConn, body []byte, want SeverCause) {
		t.Helper()
		if cause, err := e.ingest(sc, body); err == nil || cause != want {
			t.Fatalf("%s: ingest = %v, %v; want a %v rejection", step, cause, err, want)
		}
		check(step)
	}
	reject("never dispatched", sc0, entry(1, 10), SeverNotInFlight)
	reject("owned elsewhere", sc0, entry(2, 20), SeverNotOwned)
	reject("outside the fleet", sc0, entry(4, 25), SeverOutside)
	if _, err := e.ingest(sc0, entry(0, 30)); err != nil {
		t.Fatal(err)
	}
	want[0] = 30
	check("first update")
	reject("already arrived", sc0, entry(0, 40), SeverNotInFlight)
	if ring[0].loss != 30 {
		t.Fatalf("rejected duplicate overwrote the train loss: %v", ring[0].loss)
	}
	if _, err := e.ingest(sc1, entry(2, 50)); err != nil {
		t.Fatal(err)
	}
	want[2] = 50
	check("owner's update")
}

// TestIngestRejectsHostileDense sends Updates frames whose dense payload
// is too short, too long, or of another form: each is rejected, and the
// pending ring entry's delta keeps its canary — a hostile frame never
// writes into a pending entry. The well-formed frame then lands.
func TestIngestRejectsHostileDense(t *testing.T) {
	const d = 12
	e := newRemoteExec(newRingPool(d), compress.Spec{}, 1, d, ServeOptions{Workers: 1})
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
		if cause, err := e.ingest(sc, c.body); err == nil || cause != SeverPayload {
			t.Fatalf("%s: hostile dense upload: ingest = %v, %v; want a payload rejection", c.name, cause, err)
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
	if _, err := e.ingest(sc, frame(&Update{Delta: vals[:d], TrainLoss: 0.75})); err != nil {
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

// replayFrame is one frame groupReplay emitted, copied out of the emit
// callback.
type replayFrame struct {
	round    int
	ids      []int
	dispatch bool
}

// collectReplay runs groupReplay and returns its frames.
func collectReplay(t *testing.T, ids []int, hist [][]int, live []bool) []replayFrame {
	t.Helper()
	var frames []replayFrame
	err := groupReplay(ids, hist, live, func(round int, frame []int, dispatch bool) error {
		frames = append(frames, replayFrame{round, append([]int(nil), frame...), dispatch})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// checkReplayContract asserts groupReplay's contract on one history:
// frames in ascending round order, no id twice in a frame, each client's
// entries in hist order and all of them, and a live client's last entry
// — and only that one — sent as a Dispatch frame after every other entry
// of that client.
func checkReplayContract(t *testing.T, ids []int, hist [][]int, live []bool, frames []replayFrame) {
	t.Helper()
	pos := make(map[int]int, len(ids))
	for j, id := range ids {
		pos[id] = j
	}
	sent := make([][]int, len(ids))
	for f, fr := range frames {
		if f > 0 && fr.round < frames[f-1].round {
			t.Fatalf("frame %d carries round %d after round %d", f, fr.round, frames[f-1].round)
		}
		if len(fr.ids) == 0 {
			t.Fatalf("frame %d is empty", f)
		}
		seen := make(map[int]bool, len(fr.ids))
		for _, id := range fr.ids {
			if seen[id] {
				t.Fatalf("frame %d (round %d) names client %d twice", f, fr.round, id)
			}
			seen[id] = true
			j := pos[id]
			sent[j] = append(sent[j], fr.round)
			last := len(sent[j]) == len(hist[j])
			if want := live[j] && last; fr.dispatch != want {
				t.Fatalf("frame %d: client %d entry %d sent with dispatch=%v, want %v", f, id, len(sent[j])-1, fr.dispatch, want)
			}
		}
	}
	for j, id := range ids {
		if len(sent[j]) != len(hist[j]) {
			t.Fatalf("client %d: replayed rounds %v, history %v", id, sent[j], hist[j])
		}
		for k := range hist[j] {
			if sent[j][k] != hist[j][k] {
				t.Fatalf("client %d: replayed rounds %v, history %v", id, sent[j], hist[j])
			}
		}
	}
}

// TestGroupReplayContract pins the replay merge behind replayTo on a
// hand-built history with duplicate (id, round) pairs, gaps, a client
// never dispatched, and live entries at different rounds — the exact
// frame sequence and the general contract — then on random histories,
// where strictly ascending (sync-like) ones must also take at most two
// frames per round, and an emit error must stop the merge.
func TestGroupReplayContract(t *testing.T) {
	ids := []int{4, 9, 2, 7, 5}
	hist := [][]int{
		{0, 1, 1, 3, 5}, // client 4: two entries at round 1; live at 5
		{1, 2, 5},       // client 9: settled
		{0, 0, 0},       // client 2: three entries at round 0; live
		{},              // client 7: never dispatched
		{3, 7},          // client 5: live at 7, after everyone else
	}
	live := []bool{true, false, true, false, true}
	want := []replayFrame{
		{0, []int{4, 2}, false},
		{0, []int{2}, false},
		{0, []int{2}, true},
		{1, []int{4, 9}, false},
		{1, []int{4}, false},
		{2, []int{9}, false},
		{3, []int{4, 5}, false},
		{5, []int{9}, false},
		{5, []int{4}, true},
		{7, []int{5}, true},
	}
	got := collectReplay(t, ids, hist, live)
	checkReplayContract(t, ids, hist, live, got)
	if len(got) != len(want) {
		t.Fatalf("%d frames %v, want %d %v", len(got), got, len(want), want)
	}
	for f := range want {
		g, w := got[f], want[f]
		if g.round != w.round || g.dispatch != w.dispatch || len(g.ids) != len(w.ids) {
			t.Fatalf("frame %d = %v, want %v", f, g, w)
		}
		for i := range w.ids {
			if g.ids[i] != w.ids[i] {
				t.Fatalf("frame %d = %v, want %v", f, g, w)
			}
		}
	}

	r := rng.New(31)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(12)
		strict := trial%2 == 0
		ids, hist, live := make([]int, n), make([][]int, n), make([]bool, n)
		for j := range ids {
			ids[j] = 3*j + r.IntN(3)
			round := r.IntN(3)
			for e := r.IntN(8); e > 0; e-- {
				hist[j] = append(hist[j], round)
				if step := r.IntN(3); strict || step > 0 {
					round += max(step, 1)
				}
			}
			live[j] = len(hist[j]) > 0 && r.IntN(2) == 0
		}
		frames := collectReplay(t, ids, hist, live)
		checkReplayContract(t, ids, hist, live, frames)
		if strict {
			perRound := make(map[int]int)
			for _, fr := range frames {
				if perRound[fr.round]++; perRound[fr.round] > 2 {
					t.Fatalf("trial %d: round %d took %d frames with no repeated rounds", trial, fr.round, perRound[fr.round])
				}
			}
		}
	}

	stop := errors.New("write failed")
	calls := 0
	err := groupReplay(ids, hist, live, func(int, []int, bool) error {
		calls++
		return stop
	})
	if !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("emit error: groupReplay returned %v after %d calls, want the error after 1", err, calls)
	}
}

// TestReadLoopSeverCauses pins the cause readLoop severs a connection
// under for each way a worker's stream can end: a socket closed on it
// (EOF), the same after the heartbeat supervisor marked it silenced, a
// frame of a type no worker sends, and an ingest rejection. The lone
// worker has no survivor to fail over to, so each sever marks it lost.
func TestReadLoopSeverCauses(t *testing.T) {
	const d = 4
	updates := fuzzFrame(wire.FrameUpdates, appendUpdateEntry(wire.AppendUvarint(nil, 1), &Update{Client: 9, Delta: make([]float64, d)}, 0))
	for _, c := range []struct {
		name     string
		frame    []byte
		silenced bool
		want     SeverCause
	}{
		{"eof", nil, false, SeverRead},
		{"silence", nil, true, SeverSilence},
		{"dispatch frame", fuzzFrame(wire.FrameDispatch, appendDispatch(nil, 0, []int{0}, make([]float64, d))), false, SeverFrame},
		{"outside the fleet", updates, false, SeverOutside},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newRemoteExec(newRingPool(d), compress.Spec{}, 2, d, ServeOptions{Workers: 1})
			srv, wk := net.Pipe()
			sc := &serveConn{c: srv, index: 0}
			sc.silenced.Store(c.silenced)
			e.conns[0] = sc
			e.readers.Add(1)
			go e.readLoop(sc)
			if c.frame != nil {
				if _, err := wk.Write(c.frame); err != nil {
					t.Fatal(err)
				}
			}
			wk.Close()
			e.readers.Wait()
			e.close()
			want := [NumSeverCauses]int{}
			want[c.want] = 1
			if e.severs != want {
				t.Fatalf("severs %v, want one %v", e.severs, c.want)
			}
		})
	}
}
