package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/spaclient"
	"repro/internal/store"
	"repro/internal/sum"
	"repro/internal/torture"
	"repro/internal/wire"
)

// streamClient builds a StreamIngester over a test server's base URL.
func streamClient(t *testing.T, baseURL string, opts spaclient.StreamOptions) *spaclient.StreamIngester {
	t.Helper()
	c := spaclient.New(baseURL, spaclient.Options{Timeout: 10 * time.Second})
	si := c.Stream(opts)
	t.Cleanup(func() { si.Close() })
	return si
}

// TestStreamEndToEnd: concurrent Ingest calls multiplex onto one upgraded
// connection, every batch commits with in-order answers, and the metrics
// account for the session and its frames.
func TestStreamEndToEnd(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 4}, Options{})
	const users = 4
	for u := uint64(1); u <= users; u++ {
		if err := spa.Register(u, nil); err != nil {
			t.Fatal(err)
		}
	}
	si := streamClient(t, ts.URL, spaclient.StreamOptions{})

	const rounds = 8
	var wg sync.WaitGroup
	errCh := make(chan error, users)
	for u := uint64(1); u <= users; u++ {
		wg.Add(1)
		go func(u uint64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := si.Ingest([]lifelog.Event{evAt(u, r+1)})
				if err != nil {
					errCh <- fmt.Errorf("user %d round %d: %v", u, r, err)
					return
				}
				if resp.Processed != 1 || resp.SkippedUnknown != 0 || resp.CoalescedWith < 1 {
					errCh <- fmt.Errorf("user %d round %d: %+v", u, r, resp)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	var m wire.Metrics
	if code, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.StreamConns != 1 {
		t.Fatalf("stream conns %d, want 1", m.StreamConns)
	}
	if m.StreamFrames != users*rounds {
		t.Fatalf("stream frames %d, want %d", m.StreamFrames, users*rounds)
	}
	if m.IngestEvents != users*rounds {
		t.Fatalf("ingest events %d, want %d", m.IngestEvents, users*rounds)
	}
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}
	// The gauge settles once the session is gone.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if code, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
			t.Fatalf("metrics: %d", code)
		}
		if m.StreamConns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream conns %d after Close", m.StreamConns)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamRawTCP: the same protocol over spad -stream-addr's raw
// listener, no HTTP handshake.
func TestStreamRawTCP(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	srv := spaFromTS(t, ts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeStream(ln)

	si := streamClient(t, ts.URL, spaclient.StreamOptions{Addr: ln.Addr().String()})
	for r := 0; r < 3; r++ {
		resp, err := si.Ingest([]lifelog.Event{evAt(1, r+1)})
		if err != nil || resp.Processed != 1 {
			t.Fatalf("round %d: %+v %v", r, resp, err)
		}
	}
}

// spaFromTS reaches the *Server under a httptest server so tests can use
// ServeStream and the metrics directly.
func spaFromTS(t *testing.T, ts *httptest.Server) *Server {
	t.Helper()
	srv, ok := ts.Config.Handler.(*Server)
	if !ok {
		t.Fatalf("handler is %T, not *Server", ts.Config.Handler)
	}
	return srv
}

// TestStreamInOrderErrors: a poisoned batch mid-stream gets its own
// in-order error answer (same status vocabulary as HTTP) and the stream
// keeps serving the batches around it.
func TestStreamInOrderErrors(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	si := streamClient(t, ts.URL, spaclient.StreamOptions{})

	if resp, err := si.Ingest([]lifelog.Event{evAt(1, 1)}); err != nil || resp.Processed != 1 {
		t.Fatalf("first: %+v %v", resp, err)
	}
	// Same user, backwards time: core.ErrBadStream → 400 for this batch only.
	_, err := si.Ingest([]lifelog.Event{evAt(1, 10), evAt(1, 5)})
	var apiErr *spaclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("poisoned batch: %v", err)
	}
	if resp, err := si.Ingest([]lifelog.Event{evAt(1, 20)}); err != nil || resp.Processed != 1 {
		t.Fatalf("after error: %+v %v", resp, err)
	}
}

// TestStreamFallback: a daemon with the binary framing disabled has no
// stream endpoint; the ingester transparently speaks per-request JSON.
func TestStreamFallback(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{DisableBinary: true})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	si := streamClient(t, ts.URL, spaclient.StreamOptions{})
	resp, err := si.Ingest([]lifelog.Event{evAt(1, 1)})
	if err != nil || resp.Processed != 1 {
		t.Fatalf("fallback ingest: %+v %v", resp, err)
	}
	var m wire.Metrics
	if code, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.StreamConns != 0 || m.StreamFrames != 0 {
		t.Fatalf("fallback opened a stream: %+v", m)
	}
	if m.IngestRequests != 1 {
		t.Fatalf("per-request fallback not used: %+v", m)
	}
}

// TestStreamRefusedWhileDraining: once Close has begun, new stream
// sessions are refused instead of silently accepted and stranded.
func TestStreamRefusedWhileDraining(t *testing.T) {
	spa, err := core.New(core.Options{Shards: 2, Clock: clock.NewSimulated(t0.Add(24 * time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	defer spa.Close()
	srv := New(spa, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.Close()

	c := spaclient.New(ts.URL, spaclient.Options{})
	si := c.Stream(spaclient.StreamOptions{})
	defer si.Close()
	if _, err := si.Ingest([]lifelog.Event{evAt(1, 1)}); err == nil {
		t.Fatal("stream accepted on a draining server")
	}
}

// TestStreamUpgradeRequired: a plain GET without the upgrade headers is
// told how to upgrade rather than hijacked.
func TestStreamUpgradeRequired(t *testing.T) {
	ts, _ := testServer(t, core.Options{Shards: 1}, Options{})
	resp, err := http.Get(ts.URL + wire.StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("status %d, want 426", resp.StatusCode)
	}
	if got := resp.Header.Get("Upgrade"); got != wire.StreamProtocol {
		t.Fatalf("Upgrade header %q", got)
	}
}

// TestStreamBadFrameTerminal: framing-level garbage poisons the byte
// stream, so the server answers everything outstanding, sends a terminal
// error frame, and closes — it does not guess at resynchronization.
func TestStreamBadFrameTerminal(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	srv := spaFromTS(t, ts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeStream(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := readHello(br); err != nil {
		t.Fatal(err)
	}
	// One good frame, then garbage with a valid length prefix.
	good := wire.EncodeIngestRequest(wire.FromEvents([]lifelog.Event{evAt(1, 1)}))
	if err := wire.WriteStreamFrame(conn, good); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteStreamFrame(conn, []byte("not a SPAB frame")); err != nil {
		t.Fatal(err)
	}
	// First answer: the good frame's response, in order.
	frame := mustReadFrame(t, br)
	if kind, _ := wire.FrameKind(frame); kind != wire.KindIngestResponse {
		t.Fatalf("first answer kind %#x", kind)
	}
	// Then (skipping the credit grant) a terminal error, then EOF.
	sawError := false
	for {
		frame, err := wire.ReadStreamFrame(br, 1<<20)
		if err != nil {
			break
		}
		if kind, _ := wire.FrameKind(frame); kind == wire.KindStreamError {
			se, err := wire.DecodeStreamError(frame)
			if err != nil || se.Status != http.StatusBadRequest {
				t.Fatalf("terminal error: %+v %v", se, err)
			}
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("no terminal error frame before close")
	}
}

func readHello(br *bufio.Reader) (wire.StreamHello, error) {
	frame, err := wire.ReadStreamFrame(br, 1<<20)
	if err != nil {
		return wire.StreamHello{}, err
	}
	return wire.DecodeStreamHello(frame)
}

func mustReadFrame(t *testing.T, br *bufio.Reader) []byte {
	t.Helper()
	frame, err := wire.ReadStreamFrame(br, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestStreamDrainMixedTraffic is the acceptance drain test: HTTP requests
// and stream frames in flight together while the server shuts down. Every
// acknowledged batch must be committed and accounted; every in-flight one
// must get a definitive answer (success or a draining refusal) — nothing
// hangs, nothing acknowledged is lost.
func TestStreamDrainMixedTraffic(t *testing.T) {
	dir := t.TempDir()
	spa, err := core.New(core.Options{
		DataDir: dir, Shards: 4, Store: store.Options{SyncWrites: true},
		Clock: clock.NewSimulated(t0.Add(24 * time.Hour)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(spa, Options{StreamDrainWait: 2 * time.Second})
	ts := httptest.NewServer(srv)

	const (
		httpClients   = 3
		streamClients = 3
	)
	for u := uint64(1); u <= httpClients+streamClients; u++ {
		if err := spa.Register(u, nil); err != nil {
			t.Fatal(err)
		}
	}

	var acked atomic.Int64 // events the server acknowledged
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// HTTP lanes: hammer /v1/ingest until told to stop; after stop, errors
	// are expected (the listener is going away), but an OK means committed.
	for cl := 0; cl < httpClients; cl++ {
		wg.Add(1)
		go func(user uint64) {
			defer wg.Done()
			c := spaclient.New(ts.URL, spaclient.Options{Timeout: 5 * time.Second})
			for seq := 1; ; seq++ {
				resp, err := c.Ingest([]lifelog.Event{evAt(user, seq)})
				if err == nil && resp.Processed == 1 {
					acked.Add(1)
				}
				select {
				case <-stop:
					return
				default:
				}
				if err != nil {
					return
				}
			}
		}(uint64(cl + 1))
	}
	// Stream lanes: same, over persistent connections.
	for cl := 0; cl < streamClients; cl++ {
		wg.Add(1)
		go func(user uint64) {
			defer wg.Done()
			c := spaclient.New(ts.URL, spaclient.Options{Timeout: 5 * time.Second})
			si := c.Stream(spaclient.StreamOptions{})
			defer si.Close()
			for seq := 1; ; seq++ {
				resp, err := si.Ingest([]lifelog.Event{evAt(user, seq)})
				if err == nil && resp.Processed == 1 {
					acked.Add(1)
				}
				select {
				case <-stop:
					return
				default:
				}
				if err != nil {
					return
				}
			}
		}(uint64(httpClients + cl + 1))
	}

	// Let traffic build, then shut down mid-flight, exactly like spad's
	// SIGTERM path: stop HTTP intake, then drain streams + coalescer.
	time.Sleep(100 * time.Millisecond)
	ts.CloseClientConnections()
	close(stop)
	ts.Close()
	srv.Close()
	wg.Wait()

	committed := srv.met.ingestEvents.Load()
	if committed < uint64(acked.Load()) {
		t.Fatalf("committed %d < acknowledged %d", committed, acked.Load())
	}
	if acked.Load() == 0 {
		t.Fatal("no traffic was acknowledged before the drain")
	}
	// Durability: reopen the store and count nothing lost structurally.
	if err := spa.Close(); err != nil {
		t.Fatal(err)
	}
	spa2, err := core.New(core.Options{
		DataDir: dir, Shards: 4, Store: store.Options{SyncWrites: true},
		Clock: clock.NewSimulated(t0.Add(48 * time.Hour)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer spa2.Close()
	if got := spa2.Users(); got != httpClients+streamClients {
		t.Fatalf("reopened users %d", got)
	}
}

// TestStreamBackpressureByCredit: with a tiny window and queue, a burst of
// concurrent senders cannot overrun the server — calls serialize behind
// credit instead of failing, and every batch still commits exactly once.
func TestStreamBackpressureByCredit(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2},
		Options{StreamWindow: 1, QueueDepth: 2, MaxBatch: 2})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	si := streamClient(t, ts.URL, spaclient.StreamOptions{})
	const n = 16
	var wg sync.WaitGroup
	var processed atomic.Int64
	errCh := make(chan error, n)
	var seqMu sync.Mutex
	seq := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seqMu.Lock()
			seq++
			ev := evAt(1, seq)
			seqMu.Unlock()
			// Per-user order across a shared stream is not guaranteed for
			// concurrent senders; use strictly increasing times issued
			// under the lock so most interleavings stay legal, and accept
			// per-batch 400s (bad interleavings) but never transport errors.
			resp, err := si.Ingest([]lifelog.Event{ev})
			var apiErr *spaclient.APIError
			if err != nil && !(errors.As(err, &apiErr) && apiErr.Status == http.StatusBadRequest) {
				errCh <- err
				return
			}
			processed.Add(int64(resp.Processed))
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if processed.Load() == 0 {
		t.Fatal("nothing processed under backpressure")
	}
}

// TestStreamDecodeErrorPerFrame: a frame whose SPAB payload is malformed
// (sound length, bad contents) fails alone; the session survives.
func TestStreamDecodeErrorPerFrame(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	srv := spaFromTS(t, ts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeStream(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := readHello(br); err != nil {
		t.Fatal(err)
	}
	// A truncated-but-SPAB ingest frame: header fine, payload garbage.
	bad := wire.EncodeIngestRequest(wire.FromEvents([]lifelog.Event{evAt(1, 1)}))
	bad = bad[:len(bad)-2]
	if err := wire.WriteStreamFrame(conn, bad); err != nil {
		t.Fatal(err)
	}
	good := wire.EncodeIngestRequest(wire.FromEvents([]lifelog.Event{evAt(1, 2)}))
	if err := wire.WriteStreamFrame(conn, good); err != nil {
		t.Fatal(err)
	}
	var kinds []byte
	for len(kinds) < 4 {
		frame := mustReadFrame(t, br)
		kind, err := wire.FrameKind(frame)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, kind)
	}
	want := []byte{wire.KindStreamError, wire.KindStreamCredit, wire.KindIngestResponse, wire.KindStreamCredit}
	if !bytes.Equal(kinds, want) {
		t.Fatalf("answer kinds %v, want %v", kinds, want)
	}
}

// stuckConn is a net.Conn whose writes park forever — the shape of a peer
// that stopped reading behind a full TCP send buffer — until a deadline is
// armed, after which every parked and future write fails.
type stuckConn struct {
	inWrite chan struct{} // closed when the first write has parked
	unblock chan struct{} // closed by SetDeadline; writes then fail
	onceIn  sync.Once
	onceOut sync.Once
}

func (c *stuckConn) Write(p []byte) (int, error) {
	c.onceIn.Do(func() { close(c.inWrite) })
	<-c.unblock
	return 0, errors.New("injected write deadline")
}
func (c *stuckConn) Read(p []byte) (int, error) { <-c.unblock; return 0, io.EOF }
func (c *stuckConn) Close() error               { return nil }
func (c *stuckConn) LocalAddr() net.Addr        { return &net.TCPAddr{} }
func (c *stuckConn) RemoteAddr() net.Addr       { return &net.TCPAddr{} }
func (c *stuckConn) SetDeadline(t time.Time) error {
	if !t.IsZero() {
		c.onceOut.Do(func() { close(c.unblock) })
	}
	return nil
}
func (c *stuckConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *stuckConn) SetWriteDeadline(t time.Time) error { return nil }

// TestStreamDrainInterruptsStalledWrite: initiateDrain must arm the
// session deadline BEFORE writing the drain frame. The drain write shares
// wmu with the responder, so if the responder is already parked in a write
// to a client that stopped reading, a write-first drain would block on wmu
// with the deadline never set — and one stalled client would hang
// drainStreams, Server.Close, and spad's SIGTERM path forever.
func TestStreamDrainInterruptsStalledWrite(t *testing.T) {
	fc := &stuckConn{inWrite: make(chan struct{}), unblock: make(chan struct{})}
	sess := &streamSession{conn: fc, bw: bufio.NewWriter(fc)}
	// The responder's stance: wmu held, parked in a write nobody drains.
	go sess.writeFrames(wire.EncodeStreamCredit(1))
	<-fc.inWrite
	done := make(chan struct{})
	go func() {
		sess.initiateDrain(time.Now().Add(10 * time.Millisecond))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("initiateDrain parked behind a stalled responder write")
	}
}

// stallingFileOps passes through to the real filesystem but, once armed,
// parks every WAL write on a gate — commits hang instead of failing, which
// pins coalescer jobs (and therefore the stream responder, and therefore
// credit returns) for as long as a test needs.
type stallingFileOps struct {
	armed atomic.Bool
	gate  chan struct{}
}

func (f *stallingFileOps) Create(name string) (store.SegFile, error) { return os.Create(name) }
func (f *stallingFileOps) Rename(oldpath, newpath string) error {
	return os.Rename(oldpath, newpath)
}
func (f *stallingFileOps) Remove(name string) error { return os.Remove(name) }
func (f *stallingFileOps) OpenWAL(name string) (store.WALFile, error) {
	file, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &stallingWAL{fs: f, File: file}, nil
}

type stallingWAL struct {
	fs *stallingFileOps
	*os.File
}

func (w *stallingWAL) Write(p []byte) (int, error) {
	if w.fs.armed.Load() {
		<-w.fs.gate
	}
	return w.File.Write(p)
}

// TestStreamCreditViolationTerminal: the credit window is a protocol
// promise, not advice. A client that keeps sending with zero credit
// outstanding gets a terminal 400 — after every frame it was entitled to
// send is still answered in order.
func TestStreamCreditViolationTerminal(t *testing.T) {
	fops := &stallingFileOps{gate: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(fops.gate) }) }
	defer release()

	// SyncWrites matters: it forces each commit through the (stallable)
	// WAL write instead of parking bytes in the WAL's bufio buffer.
	ts, spa := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 2,
			Store: store.Options{SyncWrites: true, FileOps: fops}},
		Options{StreamWindow: 2})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	srv := spaFromTS(t, ts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeStream(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	hello, err := readHello(br)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Credit != 2 {
		t.Fatalf("hello credit %d, want 2", hello.Credit)
	}
	// Stall commits, then send window+1 frames without waiting for any
	// credit back: the first two are within the grant, the third violates
	// it — and with commits pinned, no credit can come back to excuse it.
	fops.armed.Store(true)
	for seq := 1; seq <= 3; seq++ {
		frame := wire.EncodeIngestRequest(wire.FromEvents([]lifelog.Event{evAt(1, seq)}))
		if err := wire.WriteStreamFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the reader has counted all three frames — with commits
	// pinned no credit can come back, so outstanding reaches exactly 3 and
	// stays there — then let the commits go so the responder can flush the
	// in-window answers and the terminal error. Polling the counter (not
	// sleeping) makes the violation deterministic: the gate only opens
	// after the window check has already tripped.
	var sess *streamSession
	deadline := time.Now().Add(5 * time.Second)
	for sess == nil {
		if time.Now().After(deadline) {
			t.Fatal("stream session never registered")
		}
		srv.streamMu.Lock()
		for s := range srv.streams {
			sess = s
		}
		srv.streamMu.Unlock()
		time.Sleep(time.Millisecond)
	}
	for sess.outstanding.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("server reader never consumed the violating frame")
		}
		time.Sleep(time.Millisecond)
	}
	release()

	// A regression that stops tripping the window would leave the server
	// waiting for more frames; bound the reads so that fails instead of
	// hanging the package.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var responses int
	var terminal *wire.StreamError
	for {
		frame, err := wire.ReadStreamFrame(br, 1<<20)
		if err != nil {
			break // server closed after the terminal error
		}
		switch kind, _ := wire.FrameKind(frame); kind {
		case wire.KindIngestResponse:
			responses++
		case wire.KindStreamError:
			se, err := wire.DecodeStreamError(frame)
			if err != nil {
				t.Fatal(err)
			}
			terminal = &se
		}
	}
	if responses != 2 {
		t.Fatalf("answered %d in-window frames, want 2", responses)
	}
	if terminal == nil {
		t.Fatal("no terminal error frame for the credit violation")
	}
	if terminal.Status != http.StatusBadRequest || !strings.Contains(terminal.Message, "credit window exceeded") {
		t.Fatalf("terminal error %+v", terminal)
	}
	if got := srv.met.streamFrames.Load(); got != 2 {
		t.Fatalf("stream frames %d, want 2 (violating frame must not count)", got)
	}
}

// TestStreamClientWriteDeadline: StreamOptions.Timeout bounds an Ingest
// call even when the server stops reading mid-write — the blocked write
// must break the connection within the budget instead of parking every
// concurrent caller (and Close) behind wmu forever.
func TestStreamClientWriteDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetReadBuffer(4 << 10) // shrink the pipe the write must fill
		}
		// Grant credit, then never read another byte.
		wire.WriteStreamFrame(conn, wire.EncodeStreamHello(wire.StreamHello{Credit: 4}))
		accepted <- conn
	}()

	c := spaclient.New("http://stream.invalid", spaclient.Options{})
	si := c.Stream(spaclient.StreamOptions{Addr: ln.Addr().String(), Timeout: 500 * time.Millisecond})
	t.Cleanup(func() { si.Close() })

	// A batch whose frame dwarfs any kernel socket buffering, so the write
	// is guaranteed to block against a non-reading peer.
	big := make([]lifelog.Event, 1<<20)
	for i := range big {
		big[i] = evAt(1, i+1)
	}
	start := time.Now()
	_, err = si.Ingest(big)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ingest into a non-reading server succeeded")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("ingest returned after %v; write deadline did not fire", elapsed)
	}
	if conn := <-accepted; conn != nil {
		conn.Close()
	}
}

// TestStreamClosePromptDuringDial: a dial stuck against an endpoint that
// accepts but never completes the handshake is bounded by DialTimeout —
// and must not park Close for that long, since Close only needs the state
// mutex, not the dial.
func TestStreamClosePromptDuringDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var connMu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			connMu.Lock()
			conns = append(conns, conn) // hold open, never send the hello
			connMu.Unlock()
		}
	}()
	t.Cleanup(func() {
		connMu.Lock()
		defer connMu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
	})

	c := spaclient.New("http://stream.invalid", spaclient.Options{})
	si := c.Stream(spaclient.StreamOptions{Addr: ln.Addr().String(), DialTimeout: 10 * time.Second})
	go si.Ingest([]lifelog.Event{evAt(1, 1)}) // parks in the hello read
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	si.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v behind an in-flight dial", d)
	}
}

// TestStreamIngestCloseRace: Ingest calls racing Close resolve cleanly —
// either a real answer (the frame beat the drain onto the wire) or
// ErrIngesterClosed (it backed out bytes-unsent) — never a spurious
// transport failure from a frame written behind the drain frame that the
// server's reader, already gone, would never answer.
func TestStreamIngestCloseRace(t *testing.T) {
	const lanes = 8
	ts, spa := testServer(t, core.Options{Shards: 4}, Options{})
	for u := uint64(1); u <= lanes; u++ {
		if err := spa.Register(u, nil); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 5; round++ {
		si := streamClient(t, ts.URL, spaclient.StreamOptions{})
		var wg sync.WaitGroup
		errCh := make(chan error, lanes)
		for u := uint64(1); u <= lanes; u++ {
			wg.Add(1)
			go func(u uint64) {
				defer wg.Done()
				for seq := 1; seq <= 64; seq++ {
					if _, err := si.Ingest([]lifelog.Event{evAt(u, seq)}); err != nil {
						errCh <- err
						return
					}
				}
			}(u)
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		si.Close()
		wg.Wait()
		close(errCh)
		for err := range errCh {
			if !errors.Is(err, spaclient.ErrIngesterClosed) {
				t.Fatalf("round %d: ingest racing close: %v", round, err)
			}
		}
	}
}

// TestStreamRawTCPDisabledFallsBack: DisableBinary disables streams on the
// raw TCP listener too (streams are binary-only), and the refusal is
// spoken in-protocol so the client falls back to per-request HTTP.
func TestStreamRawTCPDisabledFallsBack(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{DisableBinary: true})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	srv := spaFromTS(t, ts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeStream(ln)

	si := streamClient(t, ts.URL, spaclient.StreamOptions{Addr: ln.Addr().String()})
	resp, err := si.Ingest([]lifelog.Event{evAt(1, 1)})
	if err != nil || resp.Processed != 1 {
		t.Fatalf("fallback ingest: %+v %v", resp, err)
	}
	var m wire.Metrics
	if code, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.StreamFrames != 0 || m.StreamConns != 0 {
		t.Fatalf("disabled raw listener served a stream: %+v", m)
	}
}

// TestStreamTortureSmoke is the serving-layer slice of the storage torture
// harness (internal/torture): a randomized fault schedule runs underneath
// the pipelined coalescer while one persistent stream session multiplexes
// several users' frames on top. Whatever the schedule injects — one-shot
// failures, torn writes, a device kill — the durability contract must
// hold: every frame the stream ACKNOWLEDGED is recovered when the
// directory is reopened with healthy file ops. Frames the stream rejected
// may land either way (their WAL record can be durable before the fault
// fires), but only whole.
func TestStreamTortureSmoke(t *testing.T) {
	for _, seed := range []int64{3, 17, 29, 45, 61, 88} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			streamTortureRound(t, seed)
		})
	}
}

func streamTortureRound(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	classes := []torture.OpClass{
		torture.OpWALWrite, torture.OpWALSync,
		torture.OpSegCreate, torture.OpSegWrite, torture.OpSegSync,
	}
	modes := []torture.Mode{torture.ModeFail, torture.ModeShort, torture.ModeKill}
	plan := make([]torture.Fault, 1+r.Intn(2))
	for i := range plan {
		plan[i] = torture.Fault{
			Class: classes[r.Intn(len(classes))],
			Mode:  modes[r.Intn(len(modes))],
			// Coalescing merges the ~72 frames into a handful of WAL
			// records, so early op indices are the ones a run reaches.
			Nth: uint64(1 + r.Intn(12)),
		}
	}
	fo := torture.NewScheduledOps(plan)

	const (
		users  = 6
		frames = 12
	)
	dir := t.TempDir()
	spa, err := core.New(core.Options{
		DataDir: dir,
		Store: store.Options{
			SyncWrites:            true,
			MemtableBytes:         2 << 10, // tiny: frames cross flushes, so segment faults matter
			DisableAutoCompaction: true,
			FileOps:               fo,
		},
		Shards: 4,
		Clock:  clock.NewSimulated(t0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := uint64(1); u <= users; u++ {
		if err := spa.Register(u, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(spa, Options{MaxDelay: time.Millisecond})
	ts := httptest.NewServer(srv)
	si := streamClient(t, ts.URL, spaclient.StreamOptions{})
	fo.Arm()

	// Each user ships frames in order on the shared stream and stops at
	// its first failure, so at most one frame per user is ambiguous.
	// Frame f carries events 2f+1 and 2f+2 — per-user monotone times.
	frameEvents := func(u uint64, f int) []lifelog.Event {
		return []lifelog.Event{evAt(u, 2*f+1), evAt(u, 2*f+2)}
	}
	acked := make([]int, users+1) // frames acknowledged, per user
	failed := make([]bool, users+1)
	var wg sync.WaitGroup
	for u := uint64(1); u <= users; u++ {
		wg.Add(1)
		go func(u uint64) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				resp, err := si.Ingest(frameEvents(u, f))
				if err != nil {
					failed[u] = true
					return
				}
				if resp.Processed != 2 || resp.SkippedUnknown != 0 {
					t.Errorf("user %d frame %d: acked with %+v", u, f, resp)
					return
				}
				acked[u] = f + 1
			}
		}(u)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatalf("plan %v, fired %v", plan, fo.Fired())
	}
	t.Logf("plan %v, fired %v, acked %v", plan, fo.Fired(), acked[1:])

	// Tear the serving stack down; Close may fail on a faulted device,
	// which is exactly a crash. No background compactor is running, so
	// the directory is quiet afterwards either way.
	si.Close()
	ts.Close()
	srv.Close()
	_ = spa.Close()

	// Reopen with healthy ops and rebuild the acked prefix on an
	// in-memory shadow core; profiles must agree user by user.
	spa2, err := core.New(core.Options{
		DataDir: dir,
		Store:   store.Options{SyncWrites: true, DisableAutoCompaction: true},
		Shards:  4,
		Clock:   clock.NewSimulated(t0),
	})
	if err != nil {
		t.Fatalf("recovery open failed (plan %v, fired %v): %v", plan, fo.Fired(), err)
	}
	defer spa2.Close()
	shadow, err := core.New(core.Options{Shards: 4, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()

	profile := func(c *core.SPA, u uint64) []byte {
		t.Helper()
		p, err := c.Profile(u)
		if err != nil {
			t.Fatalf("profile %d (plan %v, fired %v): %v", u, plan, fo.Fired(), err)
		}
		return sum.Encode(&p)
	}
	for u := uint64(1); u <= users; u++ {
		if err := shadow.Register(u, nil); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < acked[u]; f++ {
			if _, _, err := shadow.IngestEvents(frameEvents(u, f)); err != nil {
				t.Fatal(err)
			}
		}
		got := profile(spa2, u)
		if bytes.Equal(got, profile(shadow, u)) {
			continue
		}
		// One allowance: the frame whose answer was an error may still
		// have committed before the fault fired — durable ahead of the
		// ack is legal, a torn or reordered frame is not.
		if failed[u] && acked[u] < frames {
			if _, _, err := shadow.IngestEvents(frameEvents(u, acked[u])); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, profile(shadow, u)) {
				continue
			}
		}
		t.Fatalf("user %d: %d acked frames not recovered (plan %v, fired %v)",
			u, acked[u], plan, fo.Fired())
	}
}
