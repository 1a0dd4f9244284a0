package server

// Streamed binary ingest: one long-lived connection carrying a sequence of
// SPAB ingest-request frames (internal/wire stream.go), each answered by an
// in-order response or error frame. The transport is reached two ways —
// an HTTP upgrade on /v1/ingest/stream (the daemon's existing port) or a
// raw TCP listener (ServeStream, spad -stream-addr) — and both feed the
// same per-connection loop, which in turn feeds the same coalescer the
// per-request handlers use, so streamed and HTTP traffic merge into the
// same group commits.
//
// Flow control is credit-based instead of 503-based: the hello frame
// grants the client a send window, and one credit is returned with each
// answered frame. The reader enqueues into the coalescer with the BLOCKING
// path (enqueueWait) — when the pending queue is full the reader parks,
// responses (and their piggybacked credit) stop, the client's window
// closes, and the TCP receive buffer is the only slack left. That is the
// same admission control the HTTP path exerts, expressed as "stop sending"
// rather than "try again later".
//
// Responses stay in request order because two single-goroutine stages
// compose: the reader enqueues jobs into the coalescer and appends them to
// the session's pending FIFO in the same loop, and the responder answers
// the FIFO head-first, waiting on each job's done channel before touching
// the next. Drain mirrors the HTTP path's guarantee — no accepted frame is
// dropped: on Close the server sends a drain frame, keeps reading (frames
// already in flight on the wire are still accepted and committed), and the
// reader exits on the client's drain ack, EOF, or the drain deadline; the
// responder then flushes every outstanding answer before the connection
// closes.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

const (
	// defaultStreamWindow is the per-stream credit grant: request frames a
	// client may have in flight. Deep enough to keep the coalescer fed,
	// shallow enough that one stream cannot monopolize the pending queue.
	defaultStreamWindow = 32
	// defaultStreamDrainWait bounds how long Close waits for a client to
	// acknowledge the drain frame before the read deadline cuts it off.
	defaultStreamDrainWait = 5 * time.Second
)

// streamPending is one awaited answer in a session's FIFO: a coalescer job
// whose outcome becomes a response frame, or a pre-built error frame for a
// request that never reached the coalescer.
type streamPending struct {
	job   *ingestJob
	frame []byte
}

// streamSession is one live streamed-ingest connection.
type streamSession struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// wmu serializes frame writes: the responder, the hello, and a
	// concurrent Close-initiated drain frame share the connection.
	wmu sync.Mutex

	pending chan streamPending
	done    chan struct{} // closed when serve returns; Close waits on it

	// outstanding counts request frames read but not yet answered. It
	// enforces the advertised credit window: the reader increments per
	// request frame, the responder decrements before writing the answer
	// (and its piggybacked credit), so for any credit a compliant client
	// holds the matching decrement has already happened — the count can
	// exceed the window only when the client sends beyond its credit.
	outstanding atomic.Int32

	// drainDeadline (unix nanos, nonzero once initiateDrain ran) lets the
	// farewell write cap itself at Close's drain deadline instead of
	// re-arming a fresh one, keeping shutdown within one streamDrainWait.
	drainDeadline atomic.Int64

	drainOnce sync.Once
}

// writeFrames writes the given frames as one flushed unit.
func (sess *streamSession) writeFrames(frames ...[]byte) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	for _, f := range frames {
		if err := wire.WriteStreamFrame(sess.bw, f); err != nil {
			return err
		}
	}
	return sess.bw.Flush()
}

// initiateDrain tells the client to stop sending and bounds how long the
// session may take to wind down — reads (waiting for the drain ack) AND
// writes (a client that stopped reading must not park the responder, and
// through it Close, on a full TCP send buffer). Idempotent.
//
// The deadline is armed BEFORE the drain frame is written: writeFrames
// takes wmu, and if the responder is already blocked in a write to a
// client that stopped reading, it holds wmu and only an armed deadline
// can interrupt it. Writing first would park this goroutine — and through
// it drainStreams and Server.Close — behind that stalled write forever.
func (sess *streamSession) initiateDrain(deadline time.Time) {
	sess.drainOnce.Do(func() {
		sess.drainDeadline.Store(deadline.UnixNano())
		sess.conn.SetDeadline(deadline)
		sess.writeFrames(wire.EncodeStreamDrain())
	})
}

// ServeStream accepts raw-TCP streamed-ingest connections from ln until
// the listener closes — the spad -stream-addr transport, the same protocol
// the HTTP upgrade negotiates minus the handshake. Transient accept
// failures (fd exhaustion, a connection aborted before accept) are retried
// with the same backoff net/http's Serve uses, so a brief resource spike
// cannot permanently kill the endpoint while the daemon keeps running.
func (s *Server) ServeStream(ln net.Listener) error {
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else {
					delay *= 2
				}
				if delay > time.Second {
					delay = time.Second
				}
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		go s.serveStream(conn, bufio.NewReader(conn), bufio.NewWriter(conn))
	}
}

// handleIngestStream upgrades an HTTP request into a stream session.
func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request) {
	if conn, buf, ok := s.upgradeStream(w, r); ok {
		s.serveStream(conn, buf.Reader, buf.Writer)
	}
}

// upgradeStream completes the Upgrade: spa-stream/1 handshake the ingest
// and log-shipping streams share and returns the hijacked connection. On
// failure the response is written and ok is false.
func (s *Server) upgradeStream(w http.ResponseWriter, r *http.Request) (net.Conn, *bufio.ReadWriter, bool) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), wire.StreamProtocol) ||
		!strings.Contains(strings.ToLower(r.Header.Get("Connection")), "upgrade") {
		w.Header().Set("Upgrade", wire.StreamProtocol)
		s.writeError(w, http.StatusUpgradeRequired,
			fmt.Errorf("use Connection: Upgrade with Upgrade: %s", wire.StreamProtocol))
		return nil, nil, false
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, errors.New("connection cannot be hijacked"))
		return nil, nil, false
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return nil, nil, false
	}
	// The 101 goes through the hijacked buffer so any pipelined client
	// bytes already read stay ahead of the stream reader.
	buf.Writer.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " +
		wire.StreamProtocol + "\r\nConnection: Upgrade\r\n\r\n")
	if err := buf.Writer.Flush(); err != nil {
		conn.Close()
		return nil, nil, false
	}
	conn.SetDeadline(time.Time{}) // the server's header timeouts no longer apply
	return conn, buf, true
}

// serveStream runs one connection's session to completion.
func (s *Server) serveStream(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	if s.followerOf != "" {
		// Streamed ingest is a write path; a follower refuses it with the
		// same status the HTTP write handlers answer, naming the leader.
		s.met.requestErrors.Add(1)
		wire.WriteStreamFrame(bw, wire.EncodeStreamError(http.StatusMisdirectedRequest,
			"this instance is a read-only follower; write to the leader at "+s.followerOf))
		bw.Flush()
		conn.Close()
		return
	}
	sess := &streamSession{
		srv:     s,
		conn:    conn,
		br:      br,
		bw:      bw,
		pending: make(chan streamPending, s.streamWindow),
		done:    make(chan struct{}),
	}
	if !s.registerStream(sess) {
		s.met.requestErrors.Add(1)
		sess.writeFrames(wire.EncodeStreamError(http.StatusServiceUnavailable, "server draining"))
		conn.Close()
		return
	}
	s.met.streamConns.Add(1)
	defer func() {
		s.met.streamConns.Add(-1)
		s.unregisterStream(sess)
		conn.Close()
		close(sess.done)
	}()

	if err := sess.writeFrames(wire.EncodeStreamHello(wire.StreamHello{
		Credit:        s.streamWindow,
		MaxFrameBytes: s.maxBody,
	})); err != nil {
		close(sess.pending)
		return
	}

	respDone := make(chan struct{})
	go sess.respond(respDone)

	// terminal, when set, is a stream-level refusal written after every
	// outstanding request has been answered — answers never reorder.
	var terminal []byte
loop:
	for {
		frame, err := wire.ReadStreamFrame(br, s.maxBody)
		if err != nil {
			// EOF at a frame boundary is the client hanging up (its
			// enqueued frames still commit; nobody reads the answers).
			// Frame-level garbage is terminal: past a framing error the
			// byte stream cannot be trusted.
			if errors.Is(err, wire.ErrBadFrame) {
				terminal = wire.EncodeStreamError(http.StatusBadRequest, err.Error())
			}
			break
		}
		kind, err := wire.FrameKind(frame)
		if err != nil {
			terminal = wire.EncodeStreamError(http.StatusBadRequest, err.Error())
			break
		}
		switch kind {
		case wire.KindIngestRequest:
			if int(sess.outstanding.Add(1)) > s.streamWindow {
				// The client sent past its credit: the window is a protocol
				// promise, not advice, or one stream could monopolize the
				// pending queue the window exists to share.
				terminal = wire.EncodeStreamError(http.StatusBadRequest,
					fmt.Sprintf("credit window exceeded: more than %d request frames outstanding", s.streamWindow))
				break loop
			}
			s.met.requests.Add(1)
			s.met.ingestRequests.Add(1)
			s.met.streamFrames.Add(1)
			decodeStart := time.Now()
			wevents, err := wire.DecodeIngestRequest(frame)
			if err != nil {
				// The frame boundary was sound, so only this request is
				// poisoned: answer it in order and keep reading.
				sess.pending <- streamPending{frame: wire.EncodeStreamError(
					http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))}
				continue
			}
			events := wire.ToEvents(wevents)
			s.met.obs().stage("decode", time.Since(decodeStart))
			// Cluster ownership check. Unlike the HTTP path the guard is
			// released after ENQUEUE, not commit — the responder, not this
			// reader, waits out the commit, and blocking the reader on it
			// would serialize the stream. A handoff fence closes that gap
			// with a coalescer sentinel flush (handoff.go) that drains
			// everything enqueued before the barrier.
			release, refuse := s.admitStreamWrite(events)
			if refuse != nil {
				sess.pending <- streamPending{frame: refuse}
				continue
			}
			job := &ingestJob{events: events, done: make(chan ingestDone, 1)}
			if err := s.co.enqueueWait(context.Background(), job); err != nil {
				release()
				sess.pending <- streamPending{frame: wire.EncodeStreamError(
					http.StatusServiceUnavailable, err.Error())}
				continue
			}
			release()
			sess.pending <- streamPending{job: job}
		case wire.KindStreamDrain:
			// Client is done sending; answer what we have and close.
			break loop
		default:
			terminal = wire.EncodeStreamError(http.StatusBadRequest,
				fmt.Sprintf("unexpected frame kind %#x", kind))
			break loop
		}
	}
	close(sess.pending)
	<-respDone
	// The session is over; bound the farewell write. A peer that stopped
	// reading — the credit violator the terminal frame answers, or a client
	// that hung up mid-drain — must not pin this goroutine (and its
	// s.streams entry) on a full send buffer until Server.Close. If Close
	// already armed the drain deadline, keep the earlier of the two so
	// shutdown never stretches past its documented bound.
	farewell := time.Now().Add(sess.srv.streamDrainWait)
	if dd := sess.drainDeadline.Load(); dd != 0 {
		if d := time.Unix(0, dd); d.Before(farewell) {
			farewell = d
		}
	}
	sess.conn.SetDeadline(farewell)
	if terminal != nil {
		// Counted like every HTTP-path error: a terminated stream client
		// must not be invisible to request_errors alerting.
		s.met.requestErrors.Add(1)
		sess.writeFrames(terminal)
		return
	}
	// Good-bye drain: every accepted frame has been answered.
	sess.writeFrames(wire.EncodeStreamDrain())
}

// respond is the session's single answer stage: it resolves the pending
// FIFO head-first, so answers carry exactly the arrival order of their
// requests, and returns one credit with each answer. Write failures do not
// stop the loop — the jobs behind a dead connection still hold committed
// outcomes that must be consumed.
func (sess *streamSession) respond(done chan struct{}) {
	defer close(done)
	for p := range sess.pending {
		frame := p.frame
		if p.job != nil {
			d := <-p.job.done
			if err := d.outcome.Err; err != nil {
				frame = wire.EncodeStreamError(domainStatus(err), err.Error())
			} else {
				frame = wire.EncodeIngestResponse(wire.IngestResponse{
					Processed:      d.outcome.Processed,
					SkippedUnknown: d.outcome.SkippedUnknown,
					CoalescedWith:  d.merged,
				})
			}
		}
		if kind, err := wire.FrameKind(frame); err == nil && kind == wire.KindStreamError {
			sess.srv.met.requestErrors.Add(1)
		}
		// Decrement before the credit goes on the wire: a compliant client
		// sends its next frame only after reading this credit, so the
		// reader's window check can never trip on a frame this credit paid
		// for.
		sess.outstanding.Add(-1)
		sess.writeFrames(frame, wire.EncodeStreamCredit(1))
	}
}

// registerStream admits a new session unless the server is draining.
func (s *Server) registerStream(sess *streamSession) bool {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.streamsDraining {
		return false
	}
	if s.streams == nil {
		s.streams = make(map[*streamSession]struct{})
	}
	s.streams[sess] = struct{}{}
	return true
}

func (s *Server) unregisterStream(sess *streamSession) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	delete(s.streams, sess)
}

// drainStreams runs the stream half of Close: refuse new sessions, tell
// every live one to drain, and wait for them to finish. It runs BEFORE the
// coalescer closes — stream readers are coalescer producers, and the
// no-loss drain argument needs every producer stopped before the
// dispatcher's final sweep.
func (s *Server) drainStreams() {
	s.streamMu.Lock()
	s.streamsDraining = true
	sessions := make([]*streamSession, 0, len(s.streams))
	for sess := range s.streams {
		sessions = append(sessions, sess)
	}
	s.streamMu.Unlock()
	deadline := time.Now().Add(s.streamDrainWait)
	// Arm every session concurrently: initiateDrain can block up to the
	// whole drain window behind one responder parked mid-write (it shares
	// that session's wmu), and arming sequentially would let one stalled
	// session spend the shared deadline before healthy sessions even get
	// theirs — failing their in-flight frames instantly instead of
	// granting the documented drain grace.
	for _, sess := range sessions {
		go sess.initiateDrain(deadline)
	}
	for _, sess := range sessions {
		<-sess.done
	}
}
