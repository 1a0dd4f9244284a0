//go:build !race

package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestStreamFrameAllocCeiling gates the stream session's per-frame server
// path: one 8-user × 4-event ingest frame read off the connection,
// decoded, coalesced, prepared and committed on a durable, unsynced store,
// and answered with its response and credit frames. The client side
// writes a pre-encoded frame and reads the answers into a reused buffer,
// so the count is the server's: the coalescer's wave and the core's
// commit, while the session itself — frame buffer, slot (events, job,
// done chan) and answer scratch all reused — adds nothing per frame. The
// ceiling is the measured count (go1.24, amd64); the race detector
// changes allocation counts, so the file builds only without it.
func TestStreamFrameAllocCeiling(t *testing.T) {
	spa, err := core.New(core.Options{DataDir: t.TempDir(), Store: store.Options{DisableAutoCompaction: true},
		Shards: 16, Clock: clock.NewSimulated(t0.Add(time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spa.Close() })
	var events []lifelog.Event
	for id := uint64(1); id <= 8; id++ {
		if err := spa.Register(id, []float64{float64(id), 1}); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 4; e++ {
			events = append(events, lifelog.Event{UserID: id, Time: t0.Add(time.Duration(e) * time.Minute),
				Type: lifelog.EventClick, Action: uint32(int(id)*7 + e)})
		}
	}
	s := New(spa, Options{})
	t.Cleanup(s.Close)
	srvConn, cliConn := net.Pipe()
	t.Cleanup(func() { cliConn.Close() })
	go s.serveStream(srvConn, bufio.NewReader(srvConn), bufio.NewWriter(srvConn))

	br := bufio.NewReader(cliConn)
	buf := make([]byte, 256)
	readKind := func() byte {
		n, err := binary.ReadUvarint(br)
		if err != nil || n < 6 || n > uint64(len(buf)) {
			t.Fatalf("reading a frame: length %d, %v", n, err)
		}
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			t.Fatal(err)
		}
		return buf[5]
	}
	if k := readKind(); k != wire.KindStreamHello {
		t.Fatalf("first frame kind %#x, want hello", k)
	}
	frame := wire.EncodeIngestRequest(wire.FromEvents(events))
	msg := append(binary.AppendUvarint(nil, uint64(len(frame))), frame...)
	send := func() {
		if _, err := cliConn.Write(msg); err != nil {
			t.Fatal(err)
		}
		if k := readKind(); k != wire.KindIngestResponse {
			t.Fatalf("answer kind %#x, want an ingest response", k)
		}
		if k := readKind(); k != wire.KindStreamCredit {
			t.Fatalf("second frame kind %#x, want credit", k)
		}
	}
	// The users' CF rows reach their steady size, and every slot of the
	// session's ring gets its storage.
	for range defaultStreamWindow {
		send()
	}

	const ceiling = 68
	if got := testing.AllocsPerRun(100, send); got > ceiling {
		t.Errorf("stream frame: %.1f allocs, ceiling %d", got, ceiling)
	} else {
		t.Logf("stream frame: %.1f allocs, ceiling %d", got, ceiling)
	}
}

// TestWaveRunAllocs gates the follower's frame loop: gathering a run of
// wave frames costs one allocation per frame — the frame read off the
// connection, which the run's entries alias — and nothing per entry or per
// run, since every frame decodes into the reader's reused slices.
func TestWaveRunAllocs(t *testing.T) {
	value := make([]byte, 600)
	var wire16 []byte
	for lsn := uint64(1); lsn <= 16; lsn++ {
		frame := wire.EncodeReplWave(wire.ReplWave{LSN: lsn, Annotation: make([]byte, 20), Entries: []wire.ReplEntry{
			{Key: []byte("sum/00000001"), Value: value},
			{Key: []byte("sum/00000002"), Value: value},
		}})
		wire16 = binary.AppendUvarint(wire16, uint64(len(frame)))
		wire16 = append(wire16, frame...)
	}
	src := bytes.NewReader(wire16)
	rr := &replReader{br: bufio.NewReaderSize(src, replBufBytes)}
	run := func() {
		src.Reset(wire16)
		rr.br.Reset(src)
		first, err := wire.ReadStreamFrame(rr.br, replFrameMax)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := rr.waveRun(first)
		if err != nil || len(recs) != 16 {
			t.Fatalf("run of %d records, %v", len(recs), err)
		}
	}
	run() // the reader's slices reach their steady size
	const ceiling = 16
	if got := testing.AllocsPerRun(100, run); got > ceiling {
		t.Errorf("waveRun, 16 frames × 2 entries: %.1f allocs, ceiling %d", got, ceiling)
	} else {
		t.Logf("waveRun, 16 frames × 2 entries: %.1f allocs, ceiling %d", got, ceiling)
	}
}
