package spaclient

import (
	"bufio"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/lifelog"
	"repro/internal/wire"
)

// fakeStream serves one streamed-ingest connection on a loopback listener:
// it answers the upgrade, sends a hello granting credit, and hands the
// connection to serve. The returned client dials it.
func fakeStream(t *testing.T, credit int, serve func(conn net.Conn, br *bufio.Reader)) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := http.ReadRequest(br); err != nil {
			t.Error(err)
			return
		}
		hello := wire.EncodeStreamHello(wire.StreamHello{Credit: credit, MaxFrameBytes: 1 << 20})
		bw := bufio.NewWriter(conn)
		bw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " + wire.StreamProtocol + "\r\nConnection: Upgrade\r\n\r\n")
		if err := wire.WriteStreamFrame(bw, hello); err != nil || bw.Flush() != nil {
			t.Error("writing the hello failed")
			return
		}
		serve(conn, br)
	}()
	return New("http://"+ln.Addr().String(), Options{})
}

// batchOf returns a batch of n events of one user.
func batchOf(user uint64, n int) []lifelog.Event {
	events := make([]lifelog.Event, n)
	for i := range events {
		events[i] = click(user, i+1)
	}
	return events
}

// TestStreamTimedOutCallNeverRecycled: a call that timed out waiting for
// its answer stays registered and absorbs the late answer; it is never
// handed to a later Ingest. The server withholds the first frame's answer
// until the second frame — sent only after the first call gave up — has
// arrived, then answers both in order and every later frame at once; each
// answer's Processed is its own frame's event count, so a later call that
// received an earlier frame's answer would see the wrong count.
func TestStreamTimedOutCallNeverRecycled(t *testing.T) {
	c := fakeStream(t, 8, func(conn net.Conn, br *bufio.Reader) {
		bw := bufio.NewWriter(conn)
		answer := func(n int) error {
			if err := wire.WriteStreamFrame(bw, wire.EncodeIngestResponse(wire.IngestResponse{Processed: n, CoalescedWith: 1})); err != nil {
				return err
			}
			if err := wire.WriteStreamFrame(bw, wire.EncodeStreamCredit(1)); err != nil {
				return err
			}
			return bw.Flush()
		}
		var held []int
		for frames := 1; ; frames++ {
			frame, err := wire.ReadStreamFrame(br, 1<<20)
			if err != nil {
				return
			}
			if kind, _ := wire.FrameKind(frame); kind == wire.KindStreamDrain {
				return
			}
			events, err := wire.DecodeIngestRequest(frame)
			if err != nil {
				t.Errorf("decoding frame: %v", err)
				return
			}
			held = append(held, len(events))
			if frames == 1 {
				continue // withhold the first answer past its call's timeout
			}
			for _, n := range held {
				if err := answer(n); err != nil {
					return
				}
			}
			held = held[:0]
		}
	})
	si := c.Stream(StreamOptions{Timeout: 200 * time.Millisecond})
	t.Cleanup(func() { si.Close() })

	if _, err := si.Ingest(batchOf(1, 1)); err == nil || !strings.Contains(err.Error(), "waiting for stream response") {
		t.Fatalf("withheld frame: err %v, want a response timeout", err)
	}
	for n := 2; n <= 12; n++ {
		resp, err := si.Ingest(batchOf(uint64(n), n))
		if err != nil {
			t.Fatalf("frame of %d events: %v", n, err)
		}
		if resp.Processed != n {
			t.Fatalf("frame of %d events got Processed %d: another frame's answer", n, resp.Processed)
		}
	}
}

// TestStreamFIFOReusesItsStorage: a connection's FIFO of registered calls
// keeps its storage at the most calls ever in flight at once, however
// many frames pass through it, and pops in push order.
func TestStreamFIFOReusesItsStorage(t *testing.T) {
	st := &streamState{credit: make(chan struct{}, 4)}
	calls := make([]*streamCall, 4)
	for i := range calls {
		calls[i] = &streamCall{}
	}
	for i := 0; i < 3; i++ {
		st.pushLocked(calls[i])
	}
	for i := 0; i < 1000; i++ {
		st.pushLocked(calls[(i+3)%4])
		c, _ := st.pop()
		if c != calls[i%4] {
			t.Fatalf("pop %d returned the wrong call", i)
		}
		if cap(st.calls) > 4 {
			t.Fatalf("after %d frames the FIFO holds storage for %d calls, at most 4 were in flight", i+1, cap(st.calls))
		}
	}
}
