package server

import (
	"bufio"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/wire"
)

// countingConn counts the Write calls that reach a connection: one per
// socket write.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// durableLeader opens a durable core with n registered users — one
// committed log record each — and a Server around it.
func durableLeader(t *testing.T, n int) (*Server, *core.SPA) {
	t.Helper()
	spa, err := core.New(core.Options{DataDir: t.TempDir(), Shards: 4, Clock: clock.NewSimulated(t0.Add(24 * time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(spa, Options{})
	t.Cleanup(func() {
		srv.Close()
		spa.Close()
	})
	for id := uint64(1); id <= uint64(n); id++ {
		if err := spa.Register(id, []float64{30, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if lsn, _ := spa.AppliedLSN(); lsn != uint64(n) {
		t.Fatalf("%d registrations committed through lsn %d", n, lsn)
	}
	return srv, spa
}

// TestShipThroughFlushesOncePerBatch: sixteen records ready in the log
// leave the producer in at most two socket writes (one flush per ready
// batch, not one per frame), and all of them have reached the consumer
// when shipThrough returns — the flush on return a handoff's fence relies
// on.
func TestShipThroughFlushesOncePerBatch(t *testing.T) {
	const records = 16
	srv, spa := durableLeader(t, records)
	prod, cons := net.Pipe()
	t.Cleanup(func() { prod.Close(); cons.Close() })
	conn := &countingConn{Conn: prod}
	tail, err := spa.TailLog(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	sess := &replSession{srv: srv, conn: conn, bw: bufio.NewWriterSize(conn, replBufBytes),
		tail: tail, credit: make(chan struct{}, records), closedCh: make(chan struct{})}
	for i := 0; i < records; i++ {
		sess.credit <- struct{}{}
	}

	got := make(chan uint64, records)
	go func() {
		defer close(got)
		br := bufio.NewReader(cons)
		for {
			frame, err := wire.ReadStreamFrame(br, 1<<20)
			if err != nil {
				return
			}
			wv, err := wire.DecodeReplWave(frame)
			if err != nil {
				t.Errorf("consumer: %v", err)
				return
			}
			got <- wv.LSN
		}
	}()
	if err := sess.shipThrough(records); err != nil {
		t.Fatal(err)
	}
	if n := conn.writes.Load(); n > 2 {
		t.Fatalf("%d records shipped in %d socket writes, want at most 2", records, n)
	} else {
		t.Logf("%d records shipped in %d socket writes", records, n)
	}
	// net.Pipe's Write returns once the peer has read every byte, so the
	// frames are already across; the deadline only bounds the decoding.
	deadline := time.After(5 * time.Second)
	for want := uint64(1); want <= records; want++ {
		select {
		case lsn := <-got:
			if lsn != want {
				t.Fatalf("frame %d carries lsn %d", want, lsn)
			}
		case <-deadline:
			t.Fatalf("consumer has %d of %d frames after shipThrough returned", want-1, records)
		}
	}
}

// TestReplWindowOneCatchesUp: a consumer granting a one-wave window still
// streams a backlog at round-trip speed. The producer flushes before it
// waits for credit; were it to wait with the frame still buffered, only
// the once-a-second heartbeat would push each wave out.
func TestReplWindowOneCatchesUp(t *testing.T) {
	const records = 30
	srv, _ := durableLeader(t, records)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	rr, err := dialRepl(ts.Listener.Addr().String(),
		wire.EncodeReplSubscribe(wire.ReplSubscribe{FromLSN: 1, Window: 1}), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.conn.Close()
	start := time.Now()
	for applied := uint64(0); applied < records; {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("window 1: %d of %d waves after %v", applied, records, time.Since(start))
		}
		frame, kind, err := rr.next()
		if err != nil {
			t.Fatal(err)
		}
		if kind != wire.KindReplWave {
			continue // heartbeats
		}
		wv, err := wire.DecodeReplWave(frame)
		if err != nil {
			t.Fatal(err)
		}
		if wv.LSN != applied+1 {
			t.Fatalf("wave lsn %d after %d", wv.LSN, applied)
		}
		applied = wv.LSN
		if err := rr.ack(applied); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("window 1: %d waves in %v", records, time.Since(start))
}

// TestHandoffFinalDeltaReachesTarget: a write committed on the source after
// the catch-up and before the fence travels only in the final delta. It
// must reach the target ahead of the commit frame — the target ends its
// session at that frame — so the new owner serves it.
func TestHandoffFinalDeltaReachesTarget(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, true)
	a, b := nodes["a"], nodes["b"]
	topo := fetchTopology(t, a.url())
	shadowTS, _ := testServer(t, core.Options{Shards: 4, Clock: clock.NewSimulated(t0.Add(24 * time.Hour))}, Options{})
	id := usersOwnedBy(topo, "a", 1, 1)[0]
	for _, url := range []string{a.url(), shadowTS.URL} {
		registerAndIngest(t, url, id)
	}
	late := wire.IngestRequest{Events: wire.FromEvents([]lifelog.Event{{UserID: id,
		Time: t0.Add(time.Hour), Type: lifelog.EventRating, Action: 3}})}
	var delta atomic.Uint64 // the late write's position on the source
	a.srv.beforeHandoffFence = func(shipped uint64) {
		if code, _, err := postIngest(a.url(), late); err != nil || code != http.StatusOK {
			t.Errorf("late write: %d %v", code, err)
			return
		}
		lsn, _ := a.spa.AppliedLSN()
		if lsn <= shipped {
			t.Errorf("late write at lsn %d, not past the catch-up's %d", lsn, shipped)
		}
		delta.Store(lsn)
	}
	if code, _ := doJSON(t, "POST", shadowTS.URL+"/v1/ingest", late, nil); code != http.StatusOK {
		t.Fatalf("shadow ingest: %d", code)
	}

	before := replApplies(t, b.url())
	var resp wire.HandoffResponse
	if code, _ := doJSON(t, "POST", b.url()+wire.HandoffPath,
		wire.HandoffRequest{Slots: []int{keyspace.Partition(id)}}, &resp); code != http.StatusOK || resp.Moved != 1 {
		t.Fatalf("handoff: %d, moved %d", code, resp.Moved)
	}
	if delta.Load() == 0 {
		t.Fatal("the late write never ran")
	}
	if applies := replApplies(t, b.url()) - before; applies < 2 {
		t.Fatalf("target made %v applies, want the snapshot chunk and the delta's wave run", applies)
	}
	path := "/v1/users/" + strconv.FormatUint(id, 10) + "/sensibilities"
	if got, want := getBody(t, b.url()+path), getBody(t, shadowTS.URL+path); got != want {
		t.Fatalf("new owner lost the final delta:\ngot  %s\nwant %s", strings.TrimSpace(got), strings.TrimSpace(want))
	}
}
