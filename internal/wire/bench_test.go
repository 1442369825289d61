package wire

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/compress"
	"repro/internal/rng"
)

// Wire-path benchmarks: the payload and frame marshalling kernels, plus a
// loopback throughput run at fleet scale (socket scheduling noise shows
// in it, not only codec cost).

// BenchmarkWirePayload measures one payload marshal+unmarshal round trip
// per wire form at a model-sized vector — the per-update serialization
// cost fl.Serve adds over the in-memory engine. Both directions must be
// allocation-free in steady state (buffers are reused); wire_bytes_per_
// coord tracks the varint-delta top-k form against the 12 B/coord
// in-memory figure.
func BenchmarkWirePayload(b *testing.B) {
	const d = 65536
	r := rng.New(5)
	x := make([]float64, d)
	for i := range x {
		x[i] = r.Normal(0, 1)
	}
	scratch := make([]float64, d)
	codecs := []compress.Codec{
		compress.None{},
		&compress.TopK{Frac: 0.01},
		&compress.TopK{Frac: 0.10},
		&compress.Int8{Chunk: compress.DefaultChunk},
	}
	for _, c := range codecs {
		b.Run(c.Name(), func(b *testing.B) {
			var p, out compress.Payload
			c.Grow(&p, d)
			c.Encode(&p, x, rng.New(9), scratch)
			buf := AppendPayload(nil, &p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendPayload(buf[:0], &p)
				if _, err := UnmarshalPayload(&out, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(8*d)*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB/s")
			if k := len(p.Idx); k > 0 {
				b.ReportMetric(float64(len(buf))/float64(k), "wire_bytes_per_coord")
			}
		})
	}
}

// BenchmarkWireFrame measures the length-prefixed frame codec alone:
// one WriteFrame/ReadFrame round trip of a 4 KiB body through memory.
func BenchmarkWireFrame(b *testing.B) {
	body := make([]byte, 4096)
	for i := range body {
		body[i] = byte(i)
	}
	var buf bytes.Buffer
	var wbuf []byte
	var fr Frame
	rd := bytes.NewReader(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		var err error
		wbuf, err = WriteFrame(&buf, FrameUpdates, body, wbuf)
		if err != nil {
			b.Fatal(err)
		}
		rd.Reset(buf.Bytes())
		if err := ReadFrame(rd, &fr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(body)))
}

// BenchmarkWireThroughput streams one simulated fleet's worth of top-k
// update entries (the flserver Updates-frame layout: id, loss, measured,
// payload) through a loopback TCP socket, batched 256 per frame, and
// decodes every payload on the receiver — the server's ingest path
// without training attached, in decoded updates_per_sec.
func BenchmarkWireThroughput(b *testing.B) {
	const d, k, batch = 1024, 16, 256
	codec := &compress.TopK{Frac: float64(k) / d}
	r := rng.New(3)
	x := make([]float64, d)
	for i := range x {
		x[i] = r.Normal(0, 1)
	}
	var p compress.Payload
	codec.Grow(&p, d)
	codec.Encode(&p, x, rng.New(9), make([]float64, d))
	entry := AppendUvarint(nil, 42)
	entry = AppendF64(entry, 0.5)
	entry = AppendF64(entry, 0.01)
	entry = AppendPayload(entry, &p)

	for _, tc := range []struct {
		name    string
		clients int
	}{
		{"100k", 100_000},
		{"1M", 1_000_000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			frames := (tc.clients + batch - 1) / batch
			go func() {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					return
				}
				defer conn.Close()
				frame := BeginFrame(nil, FrameUpdates)
				frame = AppendUvarint(frame, batch)
				for j := 0; j < batch; j++ {
					frame = append(frame, entry...)
				}
				EndFrame(frame, 0)
				for i := 0; i < b.N; i++ {
					for f := 0; f < frames; f++ {
						if _, err := conn.Write(frame); err != nil {
							return
						}
					}
				}
			}()
			conn, err := ln.Accept()
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()

			var fr Frame
			var out compress.Payload
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for f := 0; f < frames; f++ {
					if err := ReadFrame(conn, &fr); err != nil {
						b.Fatal(err)
					}
					dec := Dec{B: fr.Body}
					cnt := dec.Count(MaxElems, 1)
					for j := 0; j < cnt; j++ {
						dec.Uvarint()
						dec.F64()
						dec.F64()
						if err := DecodePayload(&out, &dec); err != nil {
							b.Fatal(err)
						}
						total++
					}
					if dec.Err != nil {
						b.Fatal(dec.Err)
					}
				}
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "updates_per_sec")
			b.SetBytes(int64(frames) * int64(batch) * int64(len(entry)))
		})
	}
}
