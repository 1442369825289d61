package fl

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/compress"
	"repro/internal/wire"
)

// chunkReader delivers at most chunk bytes per Read, forcing the frame
// reader through every partial-delivery path a real TCP stream can
// produce (split headers, split bodies, frames straddling reads).
type chunkReader struct {
	r     io.Reader
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.r.Read(p)
}

// fuzzFrame builds one complete frame around a body.
func fuzzFrame(t wire.FrameType, body []byte) []byte {
	buf := wire.BeginFrame(nil, t)
	buf = append(buf, body...)
	wire.EndFrame(buf, 0)
	return buf
}

// FuzzWireStream drives the server/worker read loop's frame-and-parse
// pipeline with arbitrary byte streams delivered in arbitrarily small
// chunks: split frames, truncated frames, concatenated frames, and
// garbage must all surface as errors, never panics, and every frame
// accepted before the stream breaks must parse without panicking in the
// Hello/Dispatch/Resume/Updates decoders.
func FuzzWireStream(f *testing.F) {
	hello := fuzzFrame(wire.FrameHello, appendHello(nil, 0xfeed, 1, 4, 2, nil))
	dispatch := fuzzFrame(wire.FrameDispatch, appendDispatch(nil, 3, []int{1, 5}, []float64{0.5, -1, 2}, 0))
	update := fuzzFrame(wire.FrameUpdates, appendUpdateEntry(nil, &Update{Client: 2, TrainLoss: 0.25, Delta: []float64{1, 2, 3}}, 0.125))
	f.Add(hello, uint8(1))
	f.Add(dispatch, uint8(3))
	f.Add(update, uint8(7))
	// Two frames back to back, a truncated frame, and a frame followed
	// by garbage.
	f.Add(append(append([]byte{}, hello...), dispatch...), uint8(2))
	f.Add(dispatch[:len(dispatch)-3], uint8(4))
	f.Add(append(append([]byte{}, update...), 0xff, 0x00, 0xfb), uint8(5))
	// A Hello that claims kept state (token, trained counts, unsent ids),
	// the same claim cut short, and a Dispatch carrying a run token.
	claim := appendHello(nil, 0xfeed, 1, 4, 2, &keptState{token: 0xc0ffee, trained: []int32{0, 3, 0, 1}, unsentIDs: []int{3}})
	f.Add(fuzzFrame(wire.FrameHello, claim), uint8(6))
	f.Add(fuzzFrame(wire.FrameHello, claim[:len(claim)-4]), uint8(2))
	f.Add(fuzzFrame(wire.FrameDispatch, appendDispatch(nil, 7, []int{2}, []float64{1}, 0xc0ffee)), uint8(9))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		r := &chunkReader{r: bytes.NewReader(data), chunk: max(int(chunk), 1)}
		var fr wire.Frame
		for i := 0; i < 64; i++ {
			if err := wire.ReadFrame(r, &fr); err != nil {
				return
			}
			switch fr.Type {
			case wire.FrameHello:
				parseHello(fr.Body)
			case wire.FrameDispatch, wire.FrameAdopt:
				parseDispatch(fr.Body)
			case wire.FrameResume:
				parseResume(fr.Body)
			case wire.FrameUpdates:
				// Walk the entry stream the way ingest does: id, loss,
				// measured, then a self-delimiting payload.
				d := wire.Dec{B: fr.Body}
				var p compress.Payload
				for d.Err == nil && d.Len() > 0 {
					d.Uvarint()
					d.F64()
					d.F64()
					if err := wire.DecodePayload(&p, &d); err != nil {
						break
					}
				}
			}
		}
	})
}
