package server

// Leader-side replication (DESIGN.md §9): the server half of the WAL-
// shipping stream. A follower upgrades a connection on wire.ReplPath (the
// same Upgrade: spa-stream/1 dance the ingest stream uses), the leader
// answers with the stream hello, the follower subscribes with its resume
// position and a wave-credit window, and the session settles into three
// concurrent strands over one connection:
//
//   - the wave writer (the session's main goroutine) tails the committed
//     log (core.TailLog → store.TailLog) and ships each record as a wave
//     frame, blocking on the follower-granted window — a slow follower
//     exerts backpressure by withholding acks, never by growing a queue;
//   - the ack reader consumes the follower's cumulative acks (reopening
//     the window and driving the lag accounting) and treats EOF or a
//     drain frame as the follower hanging up;
//   - the heartbeat ticker reports the leader's committed position once a
//     second so an idle, caught-up follower can still measure staleness.
//
// When the subscribed position predates the retained log floor, the
// session first ships a state snapshot (ExportSnapshot → snapshot
// begin/chunk/end frames, paced by TCP alone — the follower is not
// applying waves during bootstrap) and resumes tailing from the
// snapshot's position. Only records the store has durably committed are
// ever shipped: TailLog subscribes to the post-sync commit stream, so a
// follower cannot apply a wave the leader would not itself recover.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

const (
	// replHeartbeatInterval paces the leader's position reports; followers
	// read with a deadline several intervals long, so a silent leader is
	// detected as a dead connection.
	replHeartbeatInterval = time.Second
	// replWriteTimeout bounds any single frame write (and the subscribe
	// read): a follower that stopped reading must not park the session.
	replWriteTimeout = 10 * time.Second
	// replSnapshotChunkBytes targets one snapshot chunk frame's payload,
	// far under the 8 MiB frame cap.
	replSnapshotChunkBytes = 1 << 20
	// replAckFrameMax bounds frames read back from the follower — acks,
	// heartbeat-sized control traffic only.
	replAckFrameMax = 4 << 10
)

// replInflight is one shipped, unacknowledged wave: its position and its
// frame size, retained so acks can settle the lag-bytes gauge.
type replInflight struct {
	lsn   uint64
	bytes int64
}

// replSession is one live leader→follower replication stream.
type replSession struct {
	srv  *Server
	conn net.Conn
	bw   *bufio.Writer

	// wmu serializes frame writes: the wave writer, the heartbeat ticker,
	// and the snapshot sender share the connection.
	wmu sync.Mutex

	// acked is the follower's cumulative applied position (only the ack
	// reader stores). sent is the last wave position shipped.
	acked atomic.Uint64
	sent  atomic.Uint64

	// ackCh is closed (and dropped) whenever acked advances, waking
	// waitAcked; a waiter creates it on demand.
	ackMu sync.Mutex
	ackCh chan struct{}

	// credit holds the follower-granted wave window; the writer takes one
	// token per wave, the ack reader returns one per acknowledged record.
	credit chan struct{}

	inflightMu    sync.Mutex
	inflight      []replInflight
	inflightBytes int64

	mu     sync.Mutex
	tail   *store.LogTail
	closed bool

	closedCh chan struct{} // closed by shutdown
	done     chan struct{} // closed when serveRepl returns
}

// shutdown tears the session down once: wakes a writer blocked in
// tail.Next, fails in-flight reads/writes, and unblocks the credit wait.
func (sess *replSession) shutdown() {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return
	}
	sess.closed = true
	t := sess.tail
	sess.mu.Unlock()
	close(sess.closedCh)
	if t != nil {
		t.Close()
	}
	sess.conn.Close()
}

// installTail publishes the session's log tail so shutdown can close it.
// Returns false if the session was already shut down (the caller must
// close the tail itself and bail).
func (sess *replSession) installTail(t *store.LogTail) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return false
	}
	sess.tail = t
	return true
}

// writeFrames writes the given frames as one flushed unit, bounded by the
// write timeout.
func (sess *replSession) writeFrames(frames ...[]byte) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	sess.conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
	for _, f := range frames {
		if err := wire.WriteStreamFrame(sess.bw, f); err != nil {
			return err
		}
	}
	if err := sess.bw.Flush(); err != nil {
		return err
	}
	sess.conn.SetWriteDeadline(time.Time{})
	return nil
}

// sendError ships a terminal stream error frame (best effort).
func (sess *replSession) sendError(status int, err error) {
	sess.srv.met.requestErrors.Add(1)
	sess.writeFrames(wire.EncodeStreamError(status, err.Error()))
}

// noteSent records one shipped wave for the lag-bytes accounting.
func (sess *replSession) noteSent(lsn uint64, frameBytes int) {
	sess.sent.Store(lsn)
	sess.inflightMu.Lock()
	sess.inflight = append(sess.inflight, replInflight{lsn: lsn, bytes: int64(frameBytes)})
	sess.inflightBytes += int64(frameBytes)
	sess.inflightMu.Unlock()
}

// noteAcked settles every in-flight wave through lsn and returns the
// number of records acknowledged (the credit to return).
func (sess *replSession) noteAcked(lsn uint64) int {
	prev := sess.acked.Load()
	if lsn <= prev {
		return 0
	}
	sess.acked.Store(lsn)
	sess.ackMu.Lock()
	if sess.ackCh != nil {
		close(sess.ackCh)
		sess.ackCh = nil
	}
	sess.ackMu.Unlock()
	sess.inflightMu.Lock()
	for len(sess.inflight) > 0 && sess.inflight[0].lsn <= lsn {
		sess.inflightBytes -= sess.inflight[0].bytes
		sess.inflight = sess.inflight[1:]
	}
	sess.inflightMu.Unlock()
	return int(lsn - prev)
}

// errAckWaitTimeout is waitAcked giving up on a peer that never acked.
var errAckWaitTimeout = errors.New("ack wait timed out")

// waitAcked blocks until the peer's cumulative ack reaches lsn, returning
// nil; errAckWaitTimeout once timeout passes first; or an error once the
// session closes. It wakes on each ack as readAcks stores it — no polling.
func (sess *replSession) waitAcked(lsn uint64, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Take the wake-up channel before reading acked: an ack stored
		// after the read closes this very channel.
		sess.ackMu.Lock()
		if sess.ackCh == nil {
			sess.ackCh = make(chan struct{})
		}
		wake := sess.ackCh
		sess.ackMu.Unlock()
		if sess.acked.Load() >= lsn {
			return nil
		}
		select {
		case <-wake:
		case <-sess.closedCh:
			return errors.New("session closed")
		case <-timer.C:
			return fmt.Errorf("%w: acked %d of %d", errAckWaitTimeout, sess.acked.Load(), lsn)
		}
	}
}

// lagBytes reports the wave payload sent but not yet acknowledged.
func (sess *replSession) lagBytes() int64 {
	sess.inflightMu.Lock()
	defer sess.inflightMu.Unlock()
	return sess.inflightBytes
}

// handleReplStream upgrades an HTTP request into a leader-side
// replication session.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	if s.followerOf != "" {
		// Chained replication is out of scope: followers do not re-ship.
		w.Header().Set("X-SPA-Leader", s.followerOf)
		s.writeError(w, http.StatusMisdirectedRequest,
			fmt.Errorf("this instance follows %s; subscribe to the leader", s.followerOf))
		return
	}
	if _, ok := s.spa.AppliedLSN(); !ok {
		s.writeError(w, http.StatusNotImplemented,
			errors.New("replication requires a durable store (spad -data)"))
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), wire.StreamProtocol) ||
		!strings.Contains(strings.ToLower(r.Header.Get("Connection")), "upgrade") {
		w.Header().Set("Upgrade", wire.StreamProtocol)
		s.writeError(w, http.StatusUpgradeRequired,
			fmt.Errorf("use Connection: Upgrade with Upgrade: %s", wire.StreamProtocol))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, errors.New("connection cannot be hijacked"))
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	buf.Writer.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " +
		wire.StreamProtocol + "\r\nConnection: Upgrade\r\n\r\n")
	if err := buf.Writer.Flush(); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	s.serveRepl(conn, buf.Reader, buf.Writer)
}

// serveRepl runs one replication session to completion.
func (s *Server) serveRepl(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	sess := &replSession{
		srv:      s,
		conn:     conn,
		bw:       bw,
		closedCh: make(chan struct{}),
		done:     make(chan struct{}),
	}
	if !s.registerRepl(sess) {
		s.met.requestErrors.Add(1)
		wire.WriteStreamFrame(bw, wire.EncodeStreamError(http.StatusServiceUnavailable, "server draining"))
		bw.Flush()
		conn.Close()
		close(sess.done)
		return
	}
	defer func() {
		s.unregisterRepl(sess)
		sess.shutdown()
		close(sess.done)
	}()

	if err := sess.writeFrames(wire.EncodeStreamHello(wire.StreamHello{
		Credit:        s.streamWindow,
		MaxFrameBytes: s.maxBody,
	})); err != nil {
		return
	}

	// The subscribe must be the follower's first and only unsolicited
	// frame; bound the wait so a silent connection cannot pin a session.
	// The frame kind picks the protocol: a replication subscribe starts a
	// follower stream, a handoff subscribe starts a slot transfer
	// (handoff.go) over the same transport.
	conn.SetReadDeadline(time.Now().Add(replWriteTimeout))
	frame, err := wire.ReadStreamFrame(br, replAckFrameMax)
	if err != nil {
		return
	}
	if kind, kerr := wire.FrameKind(frame); kerr == nil && kind == wire.KindHandoffSubscribe {
		hs, err := wire.DecodeHandoffSubscribe(frame)
		if err != nil {
			sess.sendError(http.StatusBadRequest, err)
			return
		}
		conn.SetReadDeadline(time.Time{})
		s.serveHandoff(sess, br, hs)
		return
	}
	sub, err := wire.DecodeReplSubscribe(frame)
	if err != nil {
		sess.sendError(http.StatusBadRequest, err)
		return
	}
	conn.SetReadDeadline(time.Time{})

	// Resolve the resume position: tail directly when it is still
	// retained, otherwise ship a snapshot and tail from its position. The
	// loop covers the race where retention prunes between the export and
	// the re-subscribe — each round moves the position forward, and a
	// store that keeps outrunning the transfer gives up with an error.
	from := sub.FromLSN
	var tail *store.LogTail
	for attempt := 0; ; attempt++ {
		tail, err = s.spa.TailLog(from)
		if err == nil {
			break
		}
		if !errors.Is(err, store.ErrLogCompacted) || attempt >= 3 {
			sess.sendError(http.StatusInternalServerError, err)
			return
		}
		if from, err = sess.sendSnapshot(); err != nil {
			return
		}
	}
	if !sess.installTail(tail) {
		tail.Close()
		return
	}

	sess.credit = make(chan struct{}, sub.Window)
	for i := 0; i < sub.Window; i++ {
		sess.credit <- struct{}{}
	}
	sess.acked.Store(from - 1)
	sess.sent.Store(from - 1)

	go sess.readAcks(br)
	go sess.heartbeatLoop()

	// An immediate heartbeat tells a caught-up follower the leader's
	// position before the first ticker fires — bootstrap probes rely on a
	// prompt first frame to classify the resume position as retained.
	if lsn, ok := s.spa.AppliedLSN(); ok {
		if err := sess.writeFrames(wire.EncodeReplHeartbeat(lsn)); err != nil {
			return
		}
	}

	for {
		rec, err := tail.Next()
		if err != nil {
			switch {
			case errors.Is(err, store.ErrTailClosed), errors.Is(err, store.ErrClosed):
				// Session shutdown or store close: just unwind.
			case errors.Is(err, store.ErrLogCompacted):
				// Retention overtook a follower too slow for the history
				// budget; it must reconnect and bootstrap from a snapshot.
				sess.sendError(http.StatusGone, err)
			default:
				sess.sendError(http.StatusInternalServerError, err)
			}
			return
		}
		if len(rec.Entries) == 0 {
			// The store never commits empty records; a hole here would
			// desync the follower's contiguity check, so fail loudly.
			sess.sendError(http.StatusInternalServerError,
				fmt.Errorf("log record %d has no entries", rec.LSN))
			return
		}
		select {
		case <-sess.credit:
		case <-sess.closedCh:
			return
		}
		entries := make([]wire.ReplEntry, len(rec.Entries))
		for i, e := range rec.Entries {
			entries[i] = wire.ReplEntry{Key: e.Key, Value: e.Value, Tombstone: e.Tombstone}
		}
		waveFrame := wire.EncodeReplWave(wire.ReplWave{
			LSN:        rec.LSN,
			Annotation: rec.Annotation,
			Entries:    entries,
		})
		sess.noteSent(rec.LSN, len(waveFrame))
		if err := sess.writeFrames(waveFrame); err != nil {
			return
		}
	}
}

// sendSnapshot ships the current state as a begin/chunk/end sequence and
// returns the position waves resume from.
func (sess *replSession) sendSnapshot() (resumeFrom uint64, err error) {
	pairs, snapLSN, err := sess.srv.spa.ExportSnapshot()
	if err != nil {
		sess.sendError(http.StatusInternalServerError, err)
		return 0, err
	}
	if err := sess.sendSnapshotPairs(pairs, snapLSN); err != nil {
		return 0, err
	}
	return snapLSN + 1, nil
}

// sendSnapshotPairs ships an already-exported pair set as the snapshot
// begin/chunk/end sequence — shared by full-state follower bootstraps and
// slot-filtered handoff bootstraps.
func (sess *replSession) sendSnapshotPairs(pairs []store.LogEntry, snapLSN uint64) error {
	if err := sess.writeFrames(wire.EncodeReplSnapshotBegin(wire.ReplSnapshotBegin{
		SnapshotLSN: snapLSN,
		Pairs:       uint64(len(pairs)),
	})); err != nil {
		return err
	}
	var chunk []wire.ReplEntry
	var chunkBytes int
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		f := wire.EncodeReplSnapshotChunk(chunk)
		sess.srv.met.replSnapshotBytes.Add(int64(len(f)))
		chunk, chunkBytes = nil, 0
		return sess.writeFrames(f)
	}
	for _, p := range pairs {
		chunk = append(chunk, wire.ReplEntry{Key: p.Key, Value: p.Value})
		chunkBytes += len(p.Key) + len(p.Value)
		if chunkBytes >= replSnapshotChunkBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return sess.writeFrames(wire.EncodeReplSnapshotEnd(snapLSN))
}

// readAcks is the session's read side: cumulative acks reopen the wave
// window and settle the lag accounting; a drain frame or EOF is the
// follower hanging up, and anything else is a protocol violation — all
// three end the session.
func (sess *replSession) readAcks(br *bufio.Reader) {
	defer sess.shutdown()
	for {
		frame, err := wire.ReadStreamFrame(br, replAckFrameMax)
		if err != nil {
			return
		}
		kind, err := wire.FrameKind(frame)
		if err != nil {
			return
		}
		switch kind {
		case wire.KindReplAck:
			lsn, err := wire.DecodeReplAck(frame)
			if err != nil {
				return
			}
			for n := sess.noteAcked(lsn); n > 0; n-- {
				select {
				case sess.credit <- struct{}{}:
				default:
					// More acks than shipped waves: a protocol violation,
					// but credit beyond the window is simply dropped.
				}
			}
		case wire.KindStreamDrain:
			return
		default:
			return
		}
	}
}

// heartbeatLoop reports the leader's committed position once an interval.
func (sess *replSession) heartbeatLoop() {
	t := time.NewTicker(replHeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-sess.closedCh:
			return
		case <-t.C:
			lsn, ok := sess.srv.spa.AppliedLSN()
			if !ok {
				return
			}
			if err := sess.writeFrames(wire.EncodeReplHeartbeat(lsn)); err != nil {
				sess.shutdown()
				return
			}
		}
	}
}

// registerRepl admits a replication session unless the server is draining.
func (s *Server) registerRepl(sess *replSession) bool {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.replsDraining {
		return false
	}
	if s.repls == nil {
		s.repls = make(map[*replSession]struct{})
	}
	s.repls[sess] = struct{}{}
	return true
}

func (s *Server) unregisterRepl(sess *replSession) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	delete(s.repls, sess)
}

// drainRepls runs the replication half of Close: refuse new sessions,
// tear down every live one, and wait for them to unwind. Followers
// reconnect with backoff and resume from their applied position — a
// leader restart costs a follower nothing but the reconnect.
func (s *Server) drainRepls() {
	s.replMu.Lock()
	s.replsDraining = true
	sessions := make([]*replSession, 0, len(s.repls))
	for sess := range s.repls {
		sessions = append(sessions, sess)
	}
	s.replMu.Unlock()
	for _, sess := range sessions {
		sess.shutdown()
	}
	for _, sess := range sessions {
		<-sess.done
	}
}

// replicationStatus assembles the GET /v1/replication/status body — also
// the source of the repl_* gauges in /metrics, so the two views cannot
// disagree about a scrape.
func (s *Server) replicationStatus() wire.ReplicationStatus {
	st := wire.ReplicationStatus{Role: "none"}
	if s.cluster != nil {
		st.NodeID = s.cluster.nodeID
		st.TopologyEpoch = s.cluster.epochNow()
	}
	applied, durable := s.spa.AppliedLSN()
	st.AppliedLSN = applied
	if floor, ok := s.spa.LogFloor(); ok {
		st.LogFloorLSN = floor
	}
	if s.followerOf != "" {
		st.Role = "follower"
		st.Leader = s.followerOf
		st.SnapshotBytes = s.met.replSnapshotBytes.Load()
		if s.follower != nil {
			s.follower.fillStatus(&st, applied)
		}
		return st
	}
	if !durable {
		return st
	}
	st.Role = "leader"
	st.SnapshotBytes = s.met.replSnapshotBytes.Load()
	s.replMu.Lock()
	sessions := make([]*replSession, 0, len(s.repls))
	for sess := range s.repls {
		sessions = append(sessions, sess)
	}
	s.replMu.Unlock()
	for _, sess := range sessions {
		acked := sess.acked.Load()
		fs := wire.ReplFollowerStatus{AckedLSN: acked, LagBytes: sess.lagBytes()}
		if applied > acked {
			fs.LagWaves = applied - acked
		}
		st.Followers = append(st.Followers, fs)
		if fs.LagWaves > st.LagWaves {
			st.LagWaves = fs.LagWaves
		}
		if fs.LagBytes > st.LagBytes {
			st.LagBytes = fs.LagBytes
		}
	}
	return st
}

// handleReplStatus serves GET /v1/replication/status for both roles.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.replicationStatus())
}
