package server

// Log shipping, producer side (DESIGN.md §9). One session type serves both
// consumers of the committed log: a read follower (follower.go), and a
// handoff target taking over keyspace slots (handoff.go). The consumer
// upgrades a connection on wire.ReplPath (the same Upgrade: spa-stream/1
// dance the ingest stream uses), the producer answers with the stream hello,
// and the consumer's opening frame picks the session: a replication
// subscribe carries a resume position, a handoff subscribe a slot set. Both
// carry a wave-credit window. From there one path runs:
//
//   - open ships a snapshot first when the consumer needs one (a handoff
//     always starts from one; a follower whose position predates the
//     retained log floor gets one), then tails the committed log from the
//     snapshot's position (core.TailLog → store.TailLog);
//   - shipThrough turns each tailed record into a wave frame, projected onto
//     the slot set when the session has one, blocking on the consumer-
//     granted window — a slow consumer exerts backpressure by withholding
//     acks, never by growing a queue;
//   - the ack reader consumes cumulative acks (reopening the window and
//     driving the lag accounting) and treats EOF or a drain frame as the
//     consumer hanging up;
//   - the heartbeat ticker reports the producer's committed position once a
//     second so an idle, caught-up consumer can still measure staleness.
//
// A follower session ships forever. A handoff ships to the head, fences,
// ships the final delta, and ends with the ownership flip (serveHandoff).
// Only records the store has durably committed are ever shipped: TailLog
// subscribes to the post-sync commit stream, so a consumer cannot apply a
// wave the producer would not itself recover.

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"math"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/store"
	"repro/internal/wire"
)

const (
	// replHeartbeatInterval paces the producer's position reports;
	// consumers read with a deadline several intervals long, so a silent
	// producer is detected as a dead connection.
	replHeartbeatInterval = time.Second
	// replWriteTimeout bounds any single frame write (and the subscribe
	// read): a consumer that stopped reading must not park the session.
	replWriteTimeout = 10 * time.Second
	// replSnapshotChunkBytes targets one snapshot chunk frame's payload,
	// far under the 8 MiB frame cap.
	replSnapshotChunkBytes = 1 << 20
	// replAckFrameMax bounds frames read back from the consumer — acks,
	// heartbeat-sized control traffic only.
	replAckFrameMax = 4 << 10
)

// replInflight is one shipped, unacknowledged wave: its position and its
// frame size, retained so acks can settle the lag-bytes gauge.
type replInflight struct {
	lsn   uint64
	bytes int64
}

// replSession is one live log-shipping stream, producer side.
type replSession struct {
	srv  *Server
	conn net.Conn
	bw   *bufio.Writer

	// wmu serializes frame writes: the wave writer, the heartbeat ticker,
	// and the snapshot sender share the connection.
	wmu sync.Mutex

	// acked is the consumer's cumulative applied position (only the ack
	// reader stores). sent is the last wave position shipped.
	acked atomic.Uint64
	sent  atomic.Uint64

	// ackCh is closed (and dropped) whenever acked advances, waking
	// waitAcked; a waiter creates it on demand.
	ackMu sync.Mutex
	ackCh chan struct{}

	// credit holds the consumer-granted wave window; the writer takes one
	// token per wave, the ack reader returns one per acknowledged record.
	credit chan struct{}

	inflightMu    sync.Mutex
	inflight      []replInflight
	inflightBytes int64

	// The wave writer's own state: the slots a handoff ships (nil ships
	// every record whole), the tail position it has read through, and the
	// entry buffer each wave frame is encoded from.
	slots *keyspace.SlotSet
	pos   uint64
	wave  []wire.ReplEntry

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

// writeFlushed writes one frame and flushes it, bounded by the write
// timeout: every frame write on either end of a log-shipping session.
func writeFlushed(conn net.Conn, bw *bufio.Writer, frame []byte) error {
	conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
	if err := wire.WriteStreamFrame(bw, frame); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	return nil
}

// writeFrame writes one frame under the session's write lock.
func (sess *replSession) writeFrame(frame []byte) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	return writeFlushed(sess.conn, sess.bw, frame)
}

// sendError ships a terminal stream error frame (best effort).
func (sess *replSession) sendError(status int, err error) {
	sess.srv.met.requestErrors.Add(1)
	sess.writeFrame(wire.EncodeStreamError(status, err.Error()))
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

// errSessionClosed is a producer wait cut short by shutdown.
var errSessionClosed = errors.New("session closed")

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
			return errSessionClosed
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

// handleReplStream upgrades an HTTP request into a producer-side
// log-shipping session.
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
	if conn, buf, ok := s.upgradeStream(w, r); ok {
		s.serveRepl(conn, buf.Reader, buf.Writer)
	}
}

// serveRepl runs one log-shipping session to completion.
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

	if err := sess.writeFrame(wire.EncodeStreamHello(wire.StreamHello{
		Credit:        s.streamWindow,
		MaxFrameBytes: s.maxBody,
	})); err != nil {
		return
	}

	// The subscribe must be the consumer's first and only unsolicited
	// frame; bound the wait so a silent connection cannot pin a session.
	// The frame kind picks the session: a replication subscribe starts a
	// follower stream, a handoff subscribe a slot transfer (handoff.go).
	conn.SetReadDeadline(time.Now().Add(replWriteTimeout))
	frame, err := wire.ReadStreamFrame(br, replAckFrameMax)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	if kind, kerr := wire.FrameKind(frame); kerr == nil && kind == wire.KindHandoffSubscribe {
		hs, err := wire.DecodeHandoffSubscribe(frame)
		if err != nil {
			sess.sendError(http.StatusBadRequest, err)
			return
		}
		s.serveHandoff(sess, br, hs)
		return
	}
	sub, err := wire.DecodeReplSubscribe(frame)
	if err != nil {
		sess.sendError(http.StatusBadRequest, err)
		return
	}
	if sess.open(br, sub.FromLSN, sub.Window, nil) {
		sess.shipThrough(math.MaxUint64)
	}
}

// open starts shipping the log from position from to a consumer granting
// window waves of credit, projected onto slots unless they are nil. A zero
// from ships a snapshot first; so does a from that retention has pruned —
// the loop also covers the race where retention prunes between the export
// and the tail, each round moving the position forward, and a store that
// keeps outrunning the transfer gives up with an error. Then it opens the
// tail after the snapshot's position, arms the credit window, and starts
// the ack reader and the heartbeat ticker. It reports false once the
// session is over, any error frame already sent.
func (sess *replSession) open(br *bufio.Reader, from uint64, window int, slots *keyspace.SlotSet) bool {
	sess.slots = slots
	var tail *store.LogTail
	for attempt := 0; ; attempt++ {
		if from == 0 {
			snapLSN, err := sess.sendSnapshot()
			if err != nil {
				return false
			}
			from = snapLSN + 1
		}
		var err error
		if tail, err = sess.srv.spa.TailLog(from); err == nil {
			break
		}
		if !errors.Is(err, store.ErrLogCompacted) || attempt >= 3 {
			sess.sendError(http.StatusInternalServerError, err)
			return false
		}
		from = 0
	}
	if !sess.installTail(tail) {
		tail.Close()
		return false
	}

	sess.pos = from - 1
	sess.credit = make(chan struct{}, window)
	for i := 0; i < window; i++ {
		sess.credit <- struct{}{}
	}
	sess.acked.Store(from - 1)
	sess.sent.Store(from - 1)

	go sess.readAcks(br)
	go sess.heartbeatLoop()

	// An immediate heartbeat tells a caught-up consumer the producer's
	// position before the first ticker fires — bootstrap probes rely on a
	// prompt first frame to classify the resume position as retained.
	if lsn, ok := sess.srv.spa.AppliedLSN(); ok {
		if err := sess.writeFrame(wire.EncodeReplHeartbeat(lsn)); err != nil {
			return false
		}
	}
	return true
}

// shipThrough ships tailed records as wave frames until the tail has read
// through position until (a follower passes an until no log reaches). It
// takes one credit per frame. On a handoff each record is projected onto
// the session's slots, and a record the projection empties advances the
// position without a frame: the target stamps its own LSNs, so it checks
// no contiguity. Tail failures end the session with an error frame, except
// a closing session or store, which just unwinds.
func (sess *replSession) shipThrough(until uint64) error {
	for sess.pos < until {
		rec, err := sess.tail.Next()
		if err != nil {
			switch {
			case errors.Is(err, store.ErrTailClosed), errors.Is(err, store.ErrClosed):
			case errors.Is(err, store.ErrLogCompacted):
				// Retention overtook a consumer too slow for the history
				// budget; it must reconnect and bootstrap from a snapshot.
				sess.sendError(http.StatusGone, err)
			default:
				sess.sendError(http.StatusInternalServerError, err)
			}
			return err
		}
		sess.pos = rec.LSN
		if len(rec.Entries) == 0 {
			// The store never commits empty records; a hole here would
			// desync a follower's contiguity check, so fail loudly.
			err := fmt.Errorf("log record %d has no entries", rec.LSN)
			sess.sendError(http.StatusInternalServerError, err)
			return err
		}
		ann, entries := rec.Annotation, rec.Entries
		if sess.slots != nil {
			if ann, entries, err = core.FilterWaveForSlots(ann, entries, sess.slots); err != nil {
				sess.sendError(http.StatusInternalServerError, err)
				return err
			}
			if len(entries) == 0 {
				continue
			}
		}
		select {
		case <-sess.credit:
		case <-sess.closedCh:
			return errSessionClosed
		}
		sess.wave = sess.wave[:0]
		for _, e := range entries {
			sess.wave = append(sess.wave, wire.ReplEntry(e))
		}
		frame := wire.EncodeReplWave(wire.ReplWave{LSN: rec.LSN, Annotation: ann, Entries: sess.wave})
		sess.noteSent(rec.LSN, len(frame))
		if err := sess.writeFrame(frame); err != nil {
			return err
		}
	}
	return nil
}

// sendSnapshot exports the session's state — every live pair, or the
// slots' pairs on a handoff — ships it as the snapshot begin/chunk/end
// sequence, and returns the position it is current through.
func (sess *replSession) sendSnapshot() (uint64, error) {
	var pairs []store.LogEntry
	var snapLSN uint64
	var err error
	if sess.slots == nil {
		pairs, snapLSN, err = sess.srv.spa.ExportSnapshot()
	} else {
		pairs, snapLSN, err = sess.srv.spa.ExportSlotSnapshot(sess.slots)
	}
	if err != nil {
		sess.sendError(http.StatusInternalServerError, err)
		return 0, err
	}
	if err := sess.writeFrame(wire.EncodeReplSnapshotBegin(wire.ReplSnapshotBegin{
		SnapshotLSN: snapLSN,
		Pairs:       uint64(len(pairs)),
	})); err != nil {
		return 0, err
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
		return sess.writeFrame(f)
	}
	for _, p := range pairs {
		chunk = append(chunk, wire.ReplEntry{Key: p.Key, Value: p.Value})
		chunkBytes += len(p.Key) + len(p.Value)
		if chunkBytes >= replSnapshotChunkBytes {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}
	if err := flush(); err != nil {
		return 0, err
	}
	return snapLSN, sess.writeFrame(wire.EncodeReplSnapshotEnd(snapLSN))
}

// readAcks is the session's read side: cumulative acks reopen the wave
// window and settle the lag accounting; a drain frame or EOF is the
// consumer hanging up, and anything else is a protocol violation — all
// three end the session.
func (sess *replSession) readAcks(br *bufio.Reader) {
	defer sess.shutdown()
	for {
		frame, err := wire.ReadStreamFrame(br, replAckFrameMax)
		if err != nil {
			return
		}
		// Any frame but an ack — a drain frame or a protocol violation —
		// fails to decode and ends the session.
		lsn, err := wire.DecodeReplAck(frame)
		if err != nil {
			return
		}
		for n := sess.noteAcked(lsn); n > 0; n-- {
			select {
			case sess.credit <- struct{}{}:
			default:
				// More acks than shipped waves: a protocol violation, but
				// credit beyond the window is simply dropped.
			}
		}
	}
}

// heartbeatLoop reports the producer's committed position once an interval.
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
			if err := sess.writeFrame(wire.EncodeReplHeartbeat(lsn)); err != nil {
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

// liveRepls lists the registered sessions.
func (s *Server) liveRepls() []*replSession {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return slices.Collect(maps.Keys(s.repls))
}

// drainRepls runs the replication half of Close: refuse new sessions,
// tear down every live one, and wait for them to unwind. Followers
// reconnect with backoff and resume from their applied position — a
// leader restart costs a follower nothing but the reconnect.
func (s *Server) drainRepls() {
	s.replMu.Lock()
	s.replsDraining = true
	s.replMu.Unlock()
	sessions := s.liveRepls()
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
	for _, sess := range s.liveRepls() {
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
