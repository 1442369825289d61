package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/wire"
)

// span is one traced interval. IDs start at 1; Parent 0 marks a root.
// Lane 0 is the server's serial timeline (run ▸ setup, round ▸ train,
// aggregate, post); lane 1 holds the client hooks, which run concurrently
// on the training slots; lanes 2+ are connections, each its own root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Lane   int    `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	laneServer = 0
	laneHooks  = 1
	laneConn0  = 2
)

var frameNames = map[wire.FrameType]string{
	wire.FrameHello: "Hello", wire.FrameDispatch: "Dispatch", wire.FrameUpdates: "Updates",
	wire.FrameHold: "Hold", wire.FrameResume: "Resume", wire.FrameBye: "Bye", wire.FrameReject: "Reject",
	wire.FramePing: "Ping", wire.FramePong: "Pong", wire.FrameAdopt: "Adopt", wire.FrameRestore: "Restore",
}

// buildSpans turns a traced recorder into the span tree. endNs is the
// moment Run or Serve returned. Round r runs from its first LocalInit to
// the first hook after its Aggregate returned (the last round to endNs).
// Its train span holds the hooks that started before its Aggregate did;
// a hook that starts later — a re-attached worker still replaying history
// while the server moves on — hangs off the round itself.
func buildSpans(r *recorder, server *connStats, endNs int64) []span {
	var spans []span
	add := func(parent int, name string, round, lane int, start, end int64) int {
		spans = append(spans, span{ID: len(spans) + 1, Parent: parent, Name: name, Round: round, Lane: lane, Start: start, End: end})
		return len(spans)
	}
	run := add(0, "run", -1, laneServer, 0, endNs)
	add(run, "setup", -1, laneServer, 0, r.startNs)

	hooks := r.hooks
	sort.SliceStable(hooks, func(i, j int) bool { return hooks[i].start < hooks[j].start })
	rounds := len(r.aggEnd)
	h := 0
	start := r.startNs
	for i := 0; i < rounds; i++ {
		first := h
		for h < len(hooks) && hooks[h].start < r.aggStart[i] {
			h++
		}
		late := h
		for h < len(hooks) && hooks[h].start < r.aggEnd[i] {
			h++
		}
		end := endNs
		if i+1 < rounds {
			end = r.aggStart[i+1]
			if h < len(hooks) && hooks[h].start < end {
				end = hooks[h].start
			}
		}
		round := add(run, fmt.Sprintf("round[%d]", i), i, laneServer, start, end)
		if first < late {
			trainEnd := start
			for _, hc := range hooks[first:late] {
				trainEnd = max(trainEnd, hc.end)
			}
			trainEnd = min(trainEnd, r.aggStart[i])
			train := add(round, "train", i, laneServer, start, trainEnd)
			for _, hc := range hooks[first:late] {
				add(train, hookNames[hc.kind], i, laneHooks, hc.start, min(hc.end, trainEnd))
			}
		}
		add(round, "aggregate", i, laneServer, r.aggStart[i], r.aggEnd[i])
		add(round, "post", i, laneServer, r.aggEnd[i], end)
		for _, hc := range hooks[late:h] {
			add(round, hookNames[hc.kind], i, laneHooks, hc.start, min(hc.end, end))
		}
		start = end
	}

	if server != nil {
		roots := map[int]int{}
		for _, cs := range server.spans {
			root, ok := roots[cs.lane]
			if !ok {
				root = add(0, fmt.Sprintf("conn[%d]", cs.lane), -1, laneConn0+cs.lane, cs.start, endNs)
				roots[cs.lane] = root
			}
			dir := "read"
			if cs.write {
				dir = "write"
			}
			add(root, fmt.Sprintf("conn.%s[%s]", dir, frameNames[cs.frame]), roundAt(r.aggEnd, cs.start), laneConn0+cs.lane, cs.start, min(cs.end, endNs))
		}
	}
	return spans
}

// roundAt returns the round in progress at time t: the number of
// Aggregate calls that had returned by then.
func roundAt(aggEnd []int64, t int64) int {
	return sort.Search(len(aggEnd), func(i int) bool { return aggEnd[i] > t })
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover (children may overlap one another).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the given spans, clipped to
// [lo, hi].
func covered(spans []span, idx []int, lo, hi int64) int64 {
	sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	var total int64
	at := lo
	for _, i := range idx {
		s, e := max(spans[i].Start, at), min(spans[i].End, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
