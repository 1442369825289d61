package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// connStats is what the connection decorators learn about one side of the
// loopback federation. Bytes are always counted; frames and blocked time
// only on connections that follow frames (see countingConn).
type connStats struct {
	rec *recorder

	bytesRead, bytesWritten atomic.Int64

	mu       sync.Mutex
	frames   int64
	readNs   int64 // time inside Read calls: mostly waiting for the peer
	writeNs  int64 // time inside Write calls
	spans    []connSpan
	dispatch int64 // bytes of Dispatch frames (the dense-global downlink)
}

// connSpan is one frame crossing a decorated connection: from the call
// that moved its first byte to the call that moved its last.
type connSpan struct {
	lane       int // connection ordinal on this side
	write      bool
	frame      wire.FrameType
	start, end int64
}

// frameScanner follows the length-prefixed frame stream through
// arbitrary read/write boundaries and reports each completed frame with
// the first bytes of its body (enough for a Dispatch round number).
type frameScanner struct {
	hdr   [wire.HeaderLen]byte
	nhdr  int
	body  int // body bytes still to come
	size  int
	typ   wire.FrameType
	head  [binary.MaxVarintLen64]byte
	nhead int
	start int64 // clock at the call that began the frame
}

// feed consumes b, which one call moved between at and end, and calls
// done for every frame completed inside it.
func (f *frameScanner) feed(b []byte, at int64, done func(typ wire.FrameType, size int, head []byte, start int64)) {
	for len(b) > 0 {
		if f.nhdr < wire.HeaderLen {
			if f.nhdr == 0 {
				f.start = at
			}
			n := copy(f.hdr[f.nhdr:], b)
			f.nhdr += n
			b = b[n:]
			if f.nhdr < wire.HeaderLen {
				return
			}
			f.typ = wire.FrameType(f.hdr[2])
			f.body = int(binary.LittleEndian.Uint32(f.hdr[3:]))
			f.size = wire.HeaderLen + f.body
			f.nhead = 0
		}
		take := min(f.body, len(b))
		if f.nhead < len(f.head) {
			f.nhead += copy(f.head[f.nhead:], b[:take])
		}
		f.body -= take
		b = b[take:]
		if f.body == 0 {
			done(f.typ, f.size, f.head[:f.nhead], f.start)
			f.nhdr = 0
		}
	}
}

// countingConn decorates one end of a worker connection.
type countingConn struct {
	net.Conn
	stats *connStats
	lane  int
	// scanIn and scanOut are set when frames must be followed: on every
	// connection of a traced run, and on the worker connection the
	// workload severs.
	scanIn, scanOut *frameScanner
	// keepSpans records a span per frame (server side of a traced run).
	keepSpans bool
	// onFrameIn sees each inbound frame once it has been delivered in
	// full; returning true severs the connection.
	onFrameIn func(typ wire.FrameType, head []byte, end int64) bool
	// onFrameOut sees each outbound frame once it has been written.
	onFrameOut func(typ wire.FrameType, end int64)
}

func (c *countingConn) Read(p []byte) (int, error) {
	if c.scanIn == nil {
		n, err := c.Conn.Read(p)
		c.stats.bytesRead.Add(int64(n))
		return n, err
	}
	t0 := c.stats.rec.now()
	n, err := c.Conn.Read(p)
	c.stats.bytesRead.Add(int64(n))
	if c.follow(c.scanIn, p[:n], t0, false) {
		c.Conn.Close()
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.scanOut == nil {
		n, err := c.Conn.Write(p)
		c.stats.bytesWritten.Add(int64(n))
		return n, err
	}
	t0 := c.stats.rec.now()
	n, err := c.Conn.Write(p)
	c.stats.bytesWritten.Add(int64(n))
	c.follow(c.scanOut, p[:n], t0, true)
	return n, err
}

// follow accounts for one Read or Write call that began at t0 and moved b:
// the time it blocked, and every frame it completed. It reports whether an
// inbound frame asked for the connection to be severed.
func (c *countingConn) follow(scan *frameScanner, b []byte, t0 int64, write bool) (sever bool) {
	st := c.stats
	t1 := st.rec.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if write {
		st.writeNs += t1 - t0
	} else {
		st.readNs += t1 - t0
	}
	scan.feed(b, t0, func(typ wire.FrameType, size int, head []byte, start int64) {
		st.frames++
		if typ == wire.FrameDispatch {
			st.dispatch += int64(size)
		}
		if c.keepSpans {
			st.spans = append(st.spans, connSpan{lane: c.lane, write: write, frame: typ, start: start, end: t1})
		}
		switch {
		case write && c.onFrameOut != nil:
			c.onFrameOut(typ, t1)
		case !write && c.onFrameIn != nil && c.onFrameIn(typ, head, t1):
			sever = true
		}
	})
	return sever
}

// countingListener hands fl.Serve decorated server-side connections. It
// embeds the TCP listener so the SetDeadline the server uses to stop its
// accept loop still reaches the socket.
type countingListener struct {
	*net.TCPListener
	stats *connStats
	lanes atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.TCPListener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, stats: l.stats, lane: int(l.lanes.Add(1)) - 1}
	if l.stats.rec.traced {
		cc.scanIn, cc.scanOut, cc.keepSpans = &frameScanner{}, &frameScanner{}, true
	}
	return cc, nil
}
