//go:build !race

package spaclient

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"

	"repro/internal/wire"
)

// TestStreamRoundTripAllocCeiling gates the client's per-frame stream
// path: one 8-user × 4-event StreamIngester.Ingest — encode, credit wait,
// write, the reader's read and decode of the answer and its credit, and
// the hand-back — against a loopback server that reads into one reused
// buffer and writes pre-encoded answers, so the count is the client's. In
// steady state a recycled call supplies the frame buffer, done chan and
// timer. The ceiling is the measured count (go1.24, amd64); the race
// detector changes allocation counts, so the file builds only without it.
func TestStreamRoundTripAllocCeiling(t *testing.T) {
	answer := wire.EncodeIngestResponse(wire.IngestResponse{Processed: 32, CoalescedWith: 1})
	credit := wire.EncodeStreamCredit(1)
	msg := binary.AppendUvarint(nil, uint64(len(answer)))
	msg = append(msg, answer...)
	msg = binary.AppendUvarint(msg, uint64(len(credit)))
	msg = append(msg, credit...)
	c := fakeStream(t, 4, func(conn net.Conn, br *bufio.Reader) {
		var buf []byte
		for {
			frame, err := wire.ReadStreamFrameInto(br, 1<<20, buf)
			if err != nil {
				return
			}
			buf = frame
			if kind, _ := wire.FrameKind(frame); kind != wire.KindIngestRequest {
				return
			}
			if _, err := conn.Write(msg); err != nil {
				return
			}
		}
	})
	si := c.Stream(StreamOptions{})
	t.Cleanup(func() { si.Close() })
	var events = batchOf(1, 4)
	for u := uint64(2); u <= 8; u++ {
		events = append(events, batchOf(u, 4)...)
	}
	ingest := func() {
		resp, err := si.Ingest(events)
		if err != nil || resp.Processed != 32 {
			t.Fatalf("Ingest: %+v, %v", resp, err)
		}
	}
	ingest() // dial, and the first call and buffers

	const ceiling = 0
	if got := testing.AllocsPerRun(100, ingest); got > ceiling {
		t.Errorf("stream round trip: %.1f allocs, ceiling %d", got, ceiling)
	} else {
		t.Logf("stream round trip: %.1f allocs, ceiling %d", got, ceiling)
	}
}
