package spaclient

// StreamIngester speaks the streamed binary ingest protocol of
// internal/wire stream.go: one long-lived connection (HTTP upgrade on
// /v1/ingest/stream, or a raw TCP endpoint via StreamOptions.Addr)
// carrying SPAB ingest frames, answered in order, flow-controlled by
// server-granted credit. Concurrent Ingest calls multiplex onto the one
// connection — each takes a credit token, writes its frame, and waits for
// its in-order answer — which is what makes a stream cheaper than
// per-request HTTP: N calls pipeline on one connection with no per-call
// header cycle.
//
// Failure semantics are deliberately conservative: a call whose frame may
// have reached the server is NEVER retried (a retry could double-ingest);
// only calls that provably sent nothing (credit wait interrupted by a
// broken or draining connection) retry on a fresh connection. Servers
// without the endpoint (pre-stream daemons, older ones run with streaming
// off) flip the ingester permanently onto the client's per-request Ingest
// path, so the same caller code works against any daemon generation.

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

// StreamOptions tune a StreamIngester.
type StreamOptions struct {
	// Addr dials a raw TCP stream endpoint (spad -stream-addr) instead of
	// upgrading the client's base URL.
	Addr string
	// DialTimeout bounds connect + handshake (default 10 s).
	DialTimeout time.Duration
	// Timeout bounds one Ingest call end to end: credit wait plus response
	// wait (default: the client's request timeout, else 30 s).
	Timeout time.Duration
}

// errStreamUnsupported marks a server without the stream endpoint; the
// ingester falls back to per-request HTTP permanently.
var errStreamUnsupported = errors.New("spaclient: server does not support streamed ingest")

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
	// pinned child stream per node. An explicit StreamOptions.Addr opts
	// out: the caller named a socket, so every frame goes there.
	routed  bool
	childMu sync.Mutex
	// children maps base URL → pinned stream; nil after Close, which is
	// what makes a racing Ingest fail instead of resurrecting a child.
	children map[string]*StreamIngester

	// dialMu serializes (re)dials and is held across the connect +
	// handshake. It is separate from mu so a slow dial — bounded only by
	// DialTimeout — never parks Close, which needs mu only briefly.
	dialMu sync.Mutex

	mu       sync.Mutex
	st       *streamState // nil until the first Ingest dials
	closed   bool
	fallback bool // server has no stream endpoint: use per-request HTTP
}

// Stream creates a streamed ingester over the client's daemon. The
// connection is dialed lazily on the first Ingest and redialed after
// failures; Close it to release the connection. In cluster mode the
// ingester keeps one stream per node and routes each batch by slot owner.
func (c *Client) Stream(opts StreamOptions) *StreamIngester {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	if opts.Timeout <= 0 {
		if t := c.hc.Timeout; t > 0 {
			opts.Timeout = t
		} else {
			opts.Timeout = 30 * time.Second
		}
	}
	si := &StreamIngester{c: c, opts: opts}
	if c.cluster != nil && opts.Addr == "" {
		si.routed = true
		si.children = make(map[string]*StreamIngester)
	}
	return si
}

// streamCall is one in-flight frame awaiting its in-order answer. done is
// buffered so the reader never blocks delivering to a caller that timed
// out and walked away.
type streamCall struct {
	done chan streamReply
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

	mu         sync.Mutex
	calls      []*streamCall
	broken     bool
	brokenErr  error
	brokenCh   chan struct{}
	draining   bool
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
		st, fallback, err := si.state()
		if fallback {
			return si.c.Ingest(events)
		}
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
	st.mu.Unlock()
	// Bounded like every other write: drain is best-effort and must not
	// park Close behind a peer that stopped reading.
	st.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteStreamFrame(st.bw, wire.EncodeStreamDrain()); err == nil {
		st.bw.Flush()
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

// state returns a live connection, dialing if needed, or reports that the
// ingester should use per-request HTTP instead. The dial itself runs under
// dialMu with mu released, so Close (and the fast path of concurrent
// Ingests once the connection exists) is never parked behind a connect.
func (si *StreamIngester) state() (*streamState, bool, error) {
	if st, fallback, err, ok := si.liveState(); ok {
		return st, fallback, err
	}
	si.dialMu.Lock()
	defer si.dialMu.Unlock()
	// Re-check: a concurrent caller may have dialed while we waited on
	// dialMu, or Close may have run.
	if st, fallback, err, ok := si.liveState(); ok {
		return st, fallback, err
	}
	st, err := si.dial()
	if err != nil {
		if errors.Is(err, errStreamUnsupported) {
			si.mu.Lock()
			si.fallback = true
			si.mu.Unlock()
			return nil, true, nil
		}
		return nil, false, err
	}
	si.mu.Lock()
	if si.closed {
		si.mu.Unlock()
		// Close won the race while we were dialing; the fresh connection
		// is ours alone to clean up.
		st.fail(ErrIngesterClosed)
		return nil, false, ErrIngesterClosed
	}
	si.st = st
	si.mu.Unlock()
	return st, false, nil
}

// liveState resolves the cases that need no dial: closed, fallback, or a
// healthy existing connection. ok=false means the caller should dial.
func (si *StreamIngester) liveState() (st *streamState, fallback bool, err error, ok bool) {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.closed {
		return nil, false, ErrIngesterClosed, true
	}
	if si.fallback {
		return nil, true, nil, true
	}
	if si.st != nil && !si.st.isBroken() {
		return si.st, false, nil, true
	}
	return nil, false, nil, false
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

// dial connects and completes the handshake: optional HTTP upgrade, then
// the server's hello. Called under dialMu (NOT si.mu), which serializes
// redials without blocking Close.
func (si *StreamIngester) dial() (*streamState, error) {
	addr := si.opts.Addr
	host := addr
	upgrade := addr == ""
	if upgrade {
		base := si.base
		if base == "" {
			base = si.c.base
		}
		u, err := url.Parse(base)
		if err != nil {
			return nil, fmt.Errorf("spaclient: parsing base URL: %w", err)
		}
		if u.Scheme != "http" {
			// TLS upgrades are not implemented; per-request HTTPS still works.
			return nil, errStreamUnsupported
		}
		host = u.Host
		addr = u.Host
		if _, _, err := net.SplitHostPort(addr); err != nil {
			addr = net.JoinHostPort(addr, "80")
		}
	}
	conn, err := net.DialTimeout("tcp", addr, si.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(si.opts.DialTimeout))
	br := bufio.NewReader(conn)
	if upgrade {
		req := "GET " + wire.StreamPath + " HTTP/1.1\r\nHost: " + host +
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
			switch resp.StatusCode {
			case http.StatusNotFound, http.StatusNotImplemented,
				http.StatusUpgradeRequired, http.StatusMethodNotAllowed:
				// A daemon predating the endpoint (404 from the mux) or
				// refusing the upgrade outright: speak per-request HTTP.
				return nil, fmt.Errorf("%w: %d", errStreamUnsupported, resp.StatusCode)
			}
			return nil, apiError(resp, raw)
		}
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
		if se.Status == http.StatusNotImplemented {
			// Raw TCP against a daemon with streaming disabled: speak
			// per-request HTTP, same as the upgrade path's refusals.
			return nil, fmt.Errorf("%w: %s", errStreamUnsupported, se.Message)
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

func (st *streamState) isBroken() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.broken
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
	calls := st.calls
	st.calls = nil
	close(st.brokenCh)
	st.mu.Unlock()
	for _, c := range calls {
		c.done <- streamReply{err: fmt.Errorf("spaclient: stream broken: %w", err)}
	}
	st.conn.Close()
}

// pop removes the FIFO head — the call the next answer frame belongs to.
func (st *streamState) pop() *streamCall {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.calls) == 0 {
		return nil
	}
	c := st.calls[0]
	st.calls = st.calls[1:]
	return c
}

// roundTrip runs one frame through the stream. retry reports that nothing
// was sent for this call, so the caller may redial and try again without
// double-ingest risk.
func (st *streamState) roundTrip(events []lifelog.Event, timeout time.Duration) (resp wire.IngestResponse, err error, retry bool) {
	frame := wire.EncodeIngestRequest(wire.FromEvents(events))
	if st.maxFrame > 0 && int64(len(frame)) > st.maxFrame {
		return resp, fmt.Errorf("spaclient: %d-byte frame exceeds server limit %d", len(frame), st.maxFrame), false
	}
	deadline := time.Now().Add(timeout)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-st.credit:
	case <-st.brokenCh:
		return resp, st.brokenErr, true
	case <-t.C:
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
		return resp, errors.New("spaclient: timed out waiting for stream credit"), false
	}
	call := &streamCall{done: make(chan streamReply, 1)}
	st.wmu.Lock()
	st.mu.Lock()
	if st.broken {
		err := st.brokenErr
		st.mu.Unlock()
		st.wmu.Unlock()
		return resp, err, true
	}
	if st.draining {
		st.mu.Unlock()
		st.wmu.Unlock()
		return resp, errStreamDraining, true
	}
	st.calls = append(st.calls, call)
	st.mu.Unlock()
	// The write gets the call's remaining budget as a deadline: Timeout
	// bounds the Ingest end to end, and a server that stopped reading must
	// break this connection rather than park every writer — concurrent
	// Ingest calls and Close all serialize behind wmu — indefinitely.
	werr := st.conn.SetWriteDeadline(deadline)
	if werr == nil {
		werr = wire.WriteStreamFrame(st.bw, frame)
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
		return r.resp, r.err, false
	case <-t.C:
		// The slot stays registered so in-order matching survives; the
		// buffered done chan absorbs the late answer.
		return resp, errors.New("spaclient: timed out waiting for stream response"), false
	}
}

// readLoop is the connection's single reader: it matches answer frames to
// the calls FIFO, banks credit grants, and observes drain.
func (st *streamState) readLoop() {
	defer close(st.readerDone)
	for {
		frame, err := wire.ReadStreamFrame(st.br, st.maxFrame)
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
			call := st.pop()
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
		case wire.KindStreamError:
			se, err := wire.DecodeStreamError(frame)
			if err != nil {
				st.fail(err)
				return
			}
			apiErr := &APIError{Status: se.Status, Message: se.Message}
			if call := st.pop(); call != nil {
				// In-order per-request failure; the stream stays up.
				call.done <- streamReply{err: apiErr}
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
			// Stop sending; outstanding answers still arrive, then the
			// server closes and the read above returns.
			st.mu.Lock()
			st.draining = true
			st.mu.Unlock()
		default:
			st.fail(fmt.Errorf("unexpected frame kind %#x", kind))
			return
		}
	}
}
