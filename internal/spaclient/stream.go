package spaclient

// StreamIngester speaks the streamed binary ingest protocol of
// internal/wire stream.go: one long-lived connection (an HTTP upgrade on
// /v1/ingest/stream) carrying SPAB ingest frames, answered in order,
// flow-controlled by server-granted credit. Concurrent Ingest calls
// multiplex onto the one connection — each takes a credit token, writes
// its frame, and waits for its in-order answer — which is what makes a
// stream cheaper than per-request HTTP: N calls pipeline on one connection
// with no per-call header cycle.
//
// Failure semantics are deliberately conservative: a call whose frame may
// have reached the server is NEVER retried (a retry could double-ingest);
// only calls that provably sent nothing (credit wait interrupted by a
// broken or draining connection) retry on a fresh connection. A server
// that refuses the stream — the upgrade answered with anything but 101, or
// an error frame in place of the hello — fails the call with an *APIError
// carrying the server's status; nothing falls back to per-request HTTP.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/lifelog"
	"repro/internal/wire"
)

// streamDialTimeout bounds a stream's connect + handshake.
const streamDialTimeout = 10 * time.Second

// StreamOptions tune a StreamIngester.
type StreamOptions struct {
	// Timeout bounds one Ingest call end to end: credit wait plus response
	// wait (default: the client's request timeout, else 30 s).
	Timeout time.Duration
}

// errStreamDraining marks a connection the server has asked to wind down;
// nothing was sent on behalf of the failed call, so a retry is safe.
var errStreamDraining = errors.New("spaclient: stream draining")

// ErrIngesterClosed rejects use after Close.
var ErrIngesterClosed = errors.New("spaclient: stream ingester closed")

// StreamIngester is a persistent-connection ingest client. Safe for
// concurrent use; create with Client.Stream.
type StreamIngester struct {
	c    *Client
	opts StreamOptions
	base string // pinned dial target (base URL); empty dials the client's base

	// Cluster mode (topology.go): a routed parent never dials itself — it
	// splits each batch by owning node and multiplexes the groups over one
	// pinned child stream per node.
	routed  bool
	childMu sync.Mutex
	// children maps base URL → pinned stream; nil after Close, which is
	// what makes a racing Ingest fail instead of resurrecting a child.
	children map[string]*StreamIngester

	// dialMu serializes (re)dials and is held across the connect +
	// handshake. It is separate from mu so a slow dial — bounded only by
	// streamDialTimeout — never parks Close, which needs mu only briefly.
	dialMu sync.Mutex

	mu     sync.Mutex
	st     *streamState // nil until the first Ingest dials
	closed bool
}

// Stream creates a streamed ingester over the client's daemon. The
// connection is dialed lazily on the first Ingest and redialed after
// failures; Close it to release the connection. In cluster mode the
// ingester keeps one stream per node and routes each batch by slot owner.
func (c *Client) Stream(opts StreamOptions) *StreamIngester {
	if opts.Timeout <= 0 {
		if t := c.hc.Timeout; t > 0 {
			opts.Timeout = t
		} else {
			opts.Timeout = 30 * time.Second
		}
	}
	si := &StreamIngester{c: c, opts: opts}
	if c.cluster != nil {
		si.routed = true
		si.children = make(map[string]*StreamIngester)
	}
	return si
}

// streamCall is one in-flight frame awaiting its in-order answer. done is
// buffered so the reader never blocks delivering to a caller that timed
// out and walked away.
//
// A call is recycled through its connection's free list, so a frame costs
// no call, channel, timer or frame buffer of its own. The rule that makes
// reuse safe: a call goes back on the list only when nothing else can
// still touch it — after its caller received its one answer (the reader
// and fail each deliver exactly one, and never touch the call again), or
// when it failed before it was registered in the FIFO. A call whose
// caller timed out waiting for its answer is abandoned, never recycled:
// it stays in the FIFO, keeping in-order matching intact, and its buffered
// done absorbs the late answer.
type streamCall struct {
	done  chan streamReply
	timer *time.Timer // bounds the call end to end; Reset per use
	frame []byte      // the encoded request, reused across uses
}

type streamReply struct {
	resp wire.IngestResponse
	err  error
}

// streamState is one live connection.
type streamState struct {
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	maxFrame int64
	credit   chan struct{}

	// wmu serializes frame writes; the calls FIFO is appended under it so
	// FIFO order always equals wire order.
	wmu sync.Mutex

	mu sync.Mutex
	// calls[head:] is the FIFO of registered calls awaiting answers, in
	// wire order; pop advances head, and push reuses the popped front.
	calls []*streamCall
	head  int
	// free holds recycled calls, at most the credit window of them.
	free      []*streamCall
	broken    bool
	brokenErr error
	brokenCh  chan struct{}
	// draining stops new frames: set by Close, or by the server's drain
	// frame. drainSent records that this side's drain frame went out, so
	// Close and the reader's ack never both send one.
	draining   bool
	drainSent  bool
	readerDone chan struct{}
}

// Ingest ships one event batch over the stream and returns its in-order
// answer. Stream-level errors carry the same *APIError statuses the HTTP
// path produces, so retry/backoff policies compose unchanged. In cluster
// mode the batch is split by owning node, each group riding that node's
// pinned stream.
func (si *StreamIngester) Ingest(events []lifelog.Event) (wire.IngestResponse, error) {
	if si.routed {
		return si.ingestRouted(events)
	}
	return si.ingestDirect(events)
}

// ingestRouted fans a batch out across the per-node streams. A 421 from a
// stream carries no owner address (frames have no headers), so a bounced
// group refreshes the map and re-sends once over the client's per-request
// HTTP path, whose own bounce retry is single-hop — two bounded hops
// total, never a loop.
func (si *StreamIngester) ingestRouted(events []lifelog.Event) (wire.IngestResponse, error) {
	groups := si.c.splitByOwner(events)
	if len(groups) == 0 {
		groups = []ingestGroup{{base: si.c.base}}
	}
	var total wire.IngestResponse
	for _, g := range groups {
		child, err := si.child(g.base)
		if err != nil {
			return total, err
		}
		resp, err := child.ingestDirect(g.events)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusMisdirectedRequest {
			si.c.cluster.invalidate()
			resp, err = si.c.Ingest(g.events)
		}
		mergeIngest(&total, resp)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// child returns the pinned stream for one node, creating it on first use.
func (si *StreamIngester) child(base string) (*StreamIngester, error) {
	si.childMu.Lock()
	defer si.childMu.Unlock()
	if si.children == nil {
		return nil, ErrIngesterClosed
	}
	st := si.children[base]
	if st == nil {
		st = &StreamIngester{c: si.c, opts: si.opts, base: base}
		si.children[base] = st
	}
	return st, nil
}

// ingestDirect runs one batch over this ingester's own connection.
func (si *StreamIngester) ingestDirect(events []lifelog.Event) (wire.IngestResponse, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		st, err := si.state()
		if err != nil {
			return wire.IngestResponse{}, err
		}
		resp, err, retry := st.roundTrip(events, si.opts.Timeout)
		if !retry {
			return resp, err
		}
		lastErr = err
		si.dropState(st)
	}
	return wire.IngestResponse{}, fmt.Errorf("spaclient: stream reconnect budget exhausted: %w", lastErr)
}

// Close announces drain, waits briefly for the server to answer what is
// outstanding and close, then releases the connection. Further Ingest
// calls fail with ErrIngesterClosed.
func (si *StreamIngester) Close() error {
	if si.routed {
		// Detach the child map first — a racing Ingest then fails in
		// child() instead of resurrecting a stream — and drain each child.
		si.childMu.Lock()
		children := si.children
		si.children = nil
		si.childMu.Unlock()
		for _, st := range children {
			st.Close()
		}
	}
	si.mu.Lock()
	if si.closed {
		si.mu.Unlock()
		return nil
	}
	si.closed = true
	st := si.st
	si.st = nil
	si.mu.Unlock()
	if st == nil {
		return nil
	}
	st.wmu.Lock()
	// Mark the state draining before the drain frame exists on the wire:
	// an Ingest racing Close that takes wmu after us must not write its
	// frame behind the drain — the server's reader exits on the drain and
	// would never answer it, turning an orderly shutdown into a spurious
	// "stream broken" failure. With the flag set, that call backs out
	// bytes-unsent and resolves to ErrIngesterClosed on its retry.
	st.mu.Lock()
	st.draining = true
	send := !st.drainSent
	st.drainSent = true
	st.mu.Unlock()
	if send {
		st.writeDrainLocked()
	}
	st.wmu.Unlock()
	// The server flushes every outstanding answer, sends its drain ack and
	// closes; the reader exits on that close.
	select {
	case <-st.readerDone:
	case <-time.After(5 * time.Second):
	}
	st.conn.Close()
	return nil
}

// state returns a live connection, dialing if needed. The dial itself runs
// under dialMu with mu released, so Close (and the fast path of concurrent
// Ingests once the connection exists) is never parked behind a connect.
func (si *StreamIngester) state() (*streamState, error) {
	if st, err, ok := si.liveState(); ok {
		return st, err
	}
	si.dialMu.Lock()
	defer si.dialMu.Unlock()
	// Re-check: a concurrent caller may have dialed while we waited on
	// dialMu, or Close may have run.
	if st, err, ok := si.liveState(); ok {
		return st, err
	}
	st, err := si.dial()
	if err != nil {
		return nil, err
	}
	si.mu.Lock()
	if si.closed {
		si.mu.Unlock()
		// Close won the race while we were dialing; the fresh connection
		// is ours alone to clean up.
		st.fail(ErrIngesterClosed)
		return nil, ErrIngesterClosed
	}
	si.st = st
	si.mu.Unlock()
	return st, nil
}

// liveState resolves the cases that need no dial: closed, or a healthy
// existing connection. ok=false means the caller should dial.
func (si *StreamIngester) liveState() (st *streamState, err error, ok bool) {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.closed {
		return nil, ErrIngesterClosed, true
	}
	if si.st != nil && si.st.usable() {
		return si.st, nil, true
	}
	return nil, nil, false
}

// dropState forgets a connection so the next Ingest redials. Only the
// state the caller actually used is dropped — a concurrent redial's fresh
// connection survives.
func (si *StreamIngester) dropState(st *streamState) {
	si.mu.Lock()
	if si.st == st {
		si.st = nil
	}
	si.mu.Unlock()
}

// dial connects and completes the handshake: the HTTP upgrade, then the
// server's hello. Called under dialMu (NOT si.mu), which serializes
// redials without blocking Close.
func (si *StreamIngester) dial() (*streamState, error) {
	base := si.base
	if base == "" {
		base = si.c.base
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("spaclient: parsing base URL: %w", err)
	}
	if u.Scheme != "http" {
		// TLS upgrades are not implemented.
		return nil, fmt.Errorf("spaclient: streamed ingest needs an http:// base URL, not %q", base)
	}
	addr := u.Host
	if _, _, err := net.SplitHostPort(addr); err != nil {
		addr = net.JoinHostPort(addr, "80")
	}
	conn, err := net.DialTimeout("tcp", addr, streamDialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(streamDialTimeout))
	br := bufio.NewReader(conn)
	req := "GET " + wire.StreamPath + " HTTP/1.1\r\nHost: " + u.Host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + wire.StreamProtocol + "\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := http.ReadResponse(br, &http.Request{Method: "GET"})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		conn.Close()
		return nil, apiError(resp, raw)
	}
	// The hello is the server's first frame on every stream.
	frame, err := wire.ReadStreamFrame(br, 1<<20)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("spaclient: reading stream hello: %w", err)
	}
	if kind, kerr := wire.FrameKind(frame); kerr == nil && kind == wire.KindStreamError {
		se, derr := wire.DecodeStreamError(frame)
		conn.Close()
		if derr != nil {
			return nil, derr
		}
		// A draining server refuses new streams with an error frame.
		return nil, &APIError{Status: se.Status, Message: se.Message}
	}
	hello, err := wire.DecodeStreamHello(frame)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("spaclient: decoding stream hello: %w", err)
	}
	conn.SetDeadline(time.Time{})
	st := &streamState{
		conn:     conn,
		br:       br,
		bw:       bufio.NewWriter(conn),
		maxFrame: hello.MaxFrameBytes,
		// Sized to the server's grant (DecodeStreamHello bounds it at
		// wire.MaxStreamCredit) so no granted credit is ever dropped.
		credit:     make(chan struct{}, hello.Credit),
		brokenCh:   make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	for i := 0; i < hello.Credit; i++ {
		st.credit <- struct{}{}
	}
	go st.readLoop()
	return st, nil
}

// writeDrainLocked writes this side's drain frame: nothing follows it on
// the connection. Bounded like every other write — drain is best-effort
// and must not park its caller behind a peer that stopped reading. The
// caller holds wmu.
func (st *streamState) writeDrainLocked() {
	st.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteStreamFrame(st.bw, wire.EncodeStreamDrain()); err == nil {
		st.bw.Flush()
	}
}

// ackDrainIfIdleLocked reports whether the server's drain is now owed its
// ack: the server asked, every frame sent has been answered, and no drain
// frame went out yet. A true result claims the ack for the caller. The
// caller holds mu.
func (st *streamState) ackDrainIfIdleLocked() bool {
	if !st.draining || st.drainSent || st.head < len(st.calls) || st.broken {
		return false
	}
	st.drainSent = true
	return true
}

// ackDrain writes the drain ack the reader claimed: the server's reader
// exits on it at once instead of at its drain deadline.
func (st *streamState) ackDrain() {
	st.wmu.Lock()
	st.writeDrainLocked()
	st.wmu.Unlock()
}

// usable reports whether new frames may go out on this connection.
func (st *streamState) usable() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.broken && !st.draining
}

// fail breaks the connection once: every outstanding call gets err, new
// sends are refused, and the conn closes so the reader unblocks.
func (st *streamState) fail(err error) {
	st.mu.Lock()
	if st.broken {
		st.mu.Unlock()
		return
	}
	st.broken = true
	st.brokenErr = err
	calls := st.calls[st.head:]
	st.calls, st.head = nil, 0
	close(st.brokenCh)
	st.mu.Unlock()
	for _, c := range calls {
		c.done <- streamReply{err: fmt.Errorf("spaclient: stream broken: %w", err)}
	}
	st.conn.Close()
}

// pop removes the FIFO head — the call the next answer frame belongs to —
// and reports whether that answer was the last one a server drain waited
// for, so the caller owes the drain ack.
func (st *streamState) pop() (c *streamCall, ack bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.head == len(st.calls) {
		return nil, false
	}
	c = st.calls[st.head]
	st.calls[st.head] = nil
	st.head++
	if st.head == len(st.calls) {
		st.calls, st.head = st.calls[:0], 0
	}
	return c, st.ackDrainIfIdleLocked()
}

// pushLocked registers c at the FIFO's tail. A full FIFO first slides its
// live calls down over the popped front, so the FIFO's storage stays as
// large as the most calls ever in flight at once. The caller holds mu.
func (st *streamState) pushLocked(c *streamCall) {
	if len(st.calls) == cap(st.calls) && st.head > 0 {
		n := copy(st.calls, st.calls[st.head:])
		clear(st.calls[n:])
		st.calls, st.head = st.calls[:n], 0
	}
	st.calls = append(st.calls, c)
}

// getCall takes a recycled call, or makes one: its done chan holds the one
// answer, and its timer starts stopped.
func (st *streamState) getCall() *streamCall {
	st.mu.Lock()
	if n := len(st.free); n > 0 {
		c := st.free[n-1]
		st.free[n-1] = nil
		st.free = st.free[:n-1]
		st.mu.Unlock()
		return c
	}
	st.mu.Unlock()
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &streamCall{done: make(chan streamReply, 1), timer: t}
}

// maxKeptFrame bounds the frame buffer a recycled call keeps: a rare huge
// batch must not pin its buffer for the connection's life.
const maxKeptFrame = 64 << 10

// putCall recycles a call that nothing else can touch any more (see
// streamCall): its answer was received, or it was never registered. The
// list keeps at most the credit window's worth; the rest are dropped.
func (st *streamState) putCall(c *streamCall) {
	c.timer.Stop()
	if cap(c.frame) > maxKeptFrame {
		c.frame = nil
	}
	st.mu.Lock()
	if len(st.free) < cap(st.credit) {
		st.free = append(st.free, c)
	}
	st.mu.Unlock()
}

// roundTrip runs one frame through the stream. retry reports that nothing
// was sent for this call, so the caller may redial and try again without
// double-ingest risk.
func (st *streamState) roundTrip(events []lifelog.Event, timeout time.Duration) (resp wire.IngestResponse, err error, retry bool) {
	call := st.getCall()
	call.frame = wire.AppendIngestRequestEvents(call.frame[:0], events)
	if st.maxFrame > 0 && int64(len(call.frame)) > st.maxFrame {
		err := fmt.Errorf("spaclient: %d-byte frame exceeds server limit %d", len(call.frame), st.maxFrame)
		st.putCall(call)
		return resp, err, false
	}
	deadline := time.Now().Add(timeout)
	t := call.timer
	t.Reset(timeout)
	select {
	case <-st.credit:
	case <-st.brokenCh:
		st.putCall(call)
		return resp, st.brokenErr, true
	case <-t.C:
		st.putCall(call)
		return resp, errors.New("spaclient: timed out waiting for stream credit"), false
	}
	if time.Until(deadline) <= 0 {
		// The credit race can be won with the budget already spent (select
		// picks randomly when both cases are ready). Nothing has been sent,
		// so time out this call alone — arming an expired write deadline
		// would fail the write without a syscall and needlessly tear down
		// the shared connection under every other in-flight call. The
		// token goes back in the bank: no frame means the server will
		// never re-issue it, and leaking it would shrink the window for
		// the life of the connection.
		select {
		case st.credit <- struct{}{}:
		default:
		}
		st.putCall(call)
		return resp, errors.New("spaclient: timed out waiting for stream credit"), false
	}
	st.wmu.Lock()
	st.mu.Lock()
	if st.broken {
		err := st.brokenErr
		st.mu.Unlock()
		st.wmu.Unlock()
		st.putCall(call)
		return resp, err, true
	}
	if st.draining {
		st.mu.Unlock()
		st.wmu.Unlock()
		st.putCall(call)
		return resp, errStreamDraining, true
	}
	st.pushLocked(call)
	st.mu.Unlock()
	// The write gets the call's remaining budget as a deadline: Timeout
	// bounds the Ingest end to end, and a server that stopped reading must
	// break this connection rather than park every writer — concurrent
	// Ingest calls and Close all serialize behind wmu — indefinitely.
	werr := st.conn.SetWriteDeadline(deadline)
	if werr == nil {
		werr = wire.WriteStreamFrame(st.bw, call.frame)
	}
	if werr == nil {
		werr = st.bw.Flush()
	}
	if werr == nil {
		st.conn.SetWriteDeadline(time.Time{})
	}
	st.wmu.Unlock()
	if werr != nil {
		// The frame may be partially on the wire: not retryable. fail
		// delivers the error to our registered call.
		st.fail(werr)
	}
	select {
	case r := <-call.done:
		st.putCall(call)
		return r.resp, r.err, false
	case <-t.C:
		// Abandoned, never recycled: the call stays registered so
		// in-order matching survives, and its buffered done chan absorbs
		// the late answer.
		return resp, errors.New("spaclient: timed out waiting for stream response"), false
	}
}

// readLoop is the connection's single reader: it matches answer frames to
// the calls FIFO, banks credit grants, and observes drain.
func (st *streamState) readLoop() {
	defer close(st.readerDone)
	// Every frame is read into buf, which the next read overwrites: each
	// decoded answer below copies what it keeps out of it.
	var buf []byte
	for {
		frame, err := wire.ReadStreamFrameInto(st.br, st.maxFrame, buf)
		buf = frame
		if err != nil {
			st.fail(err)
			return
		}
		kind, err := wire.FrameKind(frame)
		if err != nil {
			st.fail(err)
			return
		}
		switch kind {
		case wire.KindIngestResponse:
			call, ack := st.pop()
			if call == nil {
				st.fail(errors.New("response frame with no request outstanding"))
				return
			}
			resp, err := wire.DecodeIngestResponse(frame)
			if err != nil {
				call.done <- streamReply{err: err}
				st.fail(err)
				return
			}
			call.done <- streamReply{resp: resp}
			if ack {
				st.ackDrain()
			}
		case wire.KindStreamError:
			se, err := wire.DecodeStreamError(frame)
			if err != nil {
				st.fail(err)
				return
			}
			apiErr := &APIError{Status: se.Status, Message: se.Message}
			if call, ack := st.pop(); call != nil {
				// In-order per-request failure; the stream stays up.
				call.done <- streamReply{err: apiErr}
				if ack {
					st.ackDrain()
				}
				continue
			}
			// Terminal refusal with nothing outstanding.
			st.fail(apiErr)
			return
		case wire.KindStreamCredit:
			n, err := wire.DecodeStreamCredit(frame)
			if err != nil {
				st.fail(err)
				return
			}
			for i := 0; i < n; i++ {
				select {
				case st.credit <- struct{}{}:
				default:
				}
			}
		case wire.KindStreamDrain:
			// Stop sending. Outstanding answers still arrive; once the
			// last one is in (now, if none is outstanding) the reader
			// acks, the server closes, and the read above returns. New
			// ingests go to a fresh connection.
			st.mu.Lock()
			st.draining = true
			ack := st.ackDrainIfIdleLocked()
			st.mu.Unlock()
			if ack {
				st.ackDrain()
			}
		default:
			st.fail(fmt.Errorf("unexpected frame kind %#x", kind))
			return
		}
	}
}
