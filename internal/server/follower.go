package server

// Log shipping, consumer side (DESIGN.md §9): one dial, one frame reader
// and one consume loop, shared by a follower, a handoff target (pullSlots in
// handoff.go) and the follower bootstrap. A follower spad is a durable
// instance whose writes arrive over the stream instead of the ingest
// endpoints: it subscribes from its own committed position and applies each
// run of waves with the producer's LSNs (core.ApplyReplicatedWaves — the
// leader's store-commit + shard-install + publish sequence, one WAL sync
// and one ack per run), so every read API converges to the leader's state
// at the applied position. Client-facing writes answer 421 + the leader's
// address (rejectFollowerWrite in server.go).
//
// Startup ordering matters: a follower whose position predates the
// leader's retained log floor must restore a state snapshot BEFORE the
// core opens (the core loads its shard memory from the store exactly
// once, at New). BootstrapFollower does that store-level restore; the
// in-process follower loop then only ever needs the tail. If the follower
// falls behind the floor mid-run — the leader answers a reconnect with a
// snapshot — the loop parks in the "stalled" state and keeps serving
// stale reads; a process restart re-bootstraps. That trade keeps the
// live core's memory install path append-only (no mid-run state swap).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

const (
	// defaultReplWindow is the wave credit a consumer grants its producer.
	defaultReplWindow = 256
	// replDialTimeout bounds connect + upgrade + hello + subscribe.
	replDialTimeout = 10 * time.Second
	// replReadTimeout bounds one frame wait on the follower; the leader
	// heartbeats every second, so several missed intervals mean a dead
	// connection, not an idle one.
	replReadTimeout = 10 * time.Second
	// snapshotReadTimeout bounds one frame wait on a consumer whose producer
	// may first export a snapshot: a bootstrap probe or a handoff target.
	snapshotReadTimeout = 30 * time.Second
	// replBackoffMax caps the reconnect backoff.
	replBackoffMax = 5 * time.Second
)

var errFollowerStopped = errors.New("server: follower stopped")

// errNeedsSnapshot marks a mid-run resume the leader answered with a
// snapshot: the follower fell behind the retained history.
var errNeedsSnapshot = errors.New("server: follower fell behind the leader's retained log; restart to re-bootstrap")

// peerPosition is a consumer's view of its producer: the newest log
// position the producer reported, by a wave or a heartbeat, and when it
// last heartbeat.
type peerPosition struct {
	mu            sync.Mutex
	lsn           uint64
	lastHeartbeat time.Time
}

func (p *peerPosition) note(lsn uint64, heartbeat bool) {
	p.mu.Lock()
	p.lsn = max(p.lsn, lsn)
	if heartbeat {
		p.lastHeartbeat = time.Now()
	}
	p.mu.Unlock()
}

// follower is the in-process replication loop of a FollowerOf server.
type follower struct {
	srv       *Server
	leader    string // host:port
	leaderPos peerPosition

	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	state string   // "connecting", "streaming", "stalled"
	conn  net.Conn // live connection, closed by stopWait to unblock reads
}

func newFollower(s *Server, leader string) *follower {
	return &follower{
		srv:    s,
		leader: leader,
		state:  "connecting",
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// run is the follower's reconnect loop; it exits only on stopWait.
func (f *follower) run() {
	defer close(f.done)
	backoff := 250 * time.Millisecond
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		started := time.Now()
		err := f.session()
		if errors.Is(err, errFollowerStopped) {
			return
		}
		if errors.Is(err, errNeedsSnapshot) {
			f.setState("stalled")
			f.srv.logf("spad: replication: %v", err)
			backoff = replBackoffMax
		} else {
			f.setState("connecting")
			f.srv.logf("spad: replication: leader %s: %v (reconnecting)", f.leader, err)
			if time.Since(started) > replReadTimeout {
				// A session that lived a while earns a fresh backoff.
				backoff = 250 * time.Millisecond
			}
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > replBackoffMax {
			backoff = replBackoffMax
		}
	}
}

// stopWait stops the loop and waits for it to unwind.
func (f *follower) stopWait() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
}

func (f *follower) setState(state string) {
	f.mu.Lock()
	f.state = state
	f.mu.Unlock()
}

// adoptConn publishes the live connection for stopWait; returns false if
// the follower is already stopping (the caller must close conn and bail).
func (f *follower) adoptConn(conn net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case <-f.stop:
		return false
	default:
	}
	f.conn = conn
	return true
}

// fillStatus adds the follower's live view to a status snapshot.
func (f *follower) fillStatus(st *wire.ReplicationStatus, applied uint64) {
	f.mu.Lock()
	st.State = f.state
	f.mu.Unlock()
	p := &f.leaderPos
	p.mu.Lock()
	defer p.mu.Unlock()
	st.LeaderLSN = p.lsn
	if !p.lastHeartbeat.IsZero() {
		st.LastHeartbeatUnixNano = p.lastHeartbeat.UnixNano()
	}
	if p.lsn > applied {
		st.LagWaves = p.lsn - applied
	}
}

// session runs one connection: dial, subscribe from the local applied
// position, then apply waves until the connection dies.
func (f *follower) session() error {
	applied, ok := f.srv.spa.AppliedLSN()
	if !ok {
		// Misconfiguration, not a transient: park until stopped.
		f.setState("stalled")
		<-f.stop
		return errFollowerStopped
	}
	rr, err := dialRepl(f.leader, wire.EncodeReplSubscribe(wire.ReplSubscribe{
		FromLSN: applied + 1,
		Window:  defaultReplWindow,
	}), replReadTimeout)
	if err != nil {
		return err
	}
	if !f.adoptConn(rr.conn) {
		rr.conn.Close()
		return errFollowerStopped
	}
	defer rr.conn.Close()
	f.setState("streaming")

	// A snapshot cannot be installed into a live core (the shard memory was
	// loaded at New), so one offered mid-run parks the follower stalled.
	err = f.srv.consume(rr, &f.leaderPos, f.srv.spa.ApplyReplicatedWaves, false, nil)
	select {
	case <-f.stop:
		return errFollowerStopped
	default:
	}
	return err
}

// consume is the consumer side's frame loop, shared by followers and
// handoff targets. Each run of wave frames already on the wire applies as
// one group through apply — ApplyReplicatedWaves adopts the producer's
// LSNs, ApplyHandoffWaves stamps local ones — and is acked with its last
// producer position. A snapshot is applied chunk by chunk through apply
// when applySnapshot is set, and otherwise ends the session with
// errNeedsSnapshot. commit takes the handoff-commit frame and ends the
// session with its result; a nil commit refuses that frame. Waves and
// heartbeats advance peer.
func (s *Server) consume(rr *replReader, peer *peerPosition, apply func([]store.LogRecord) error,
	applySnapshot bool, commit func(wire.HandoffCommit) error) error {
	for {
		frame, kind, err := rr.next()
		if err != nil {
			return err
		}
		switch kind {
		case wire.KindReplWave:
			recs, err := rr.waveRun(frame)
			if err != nil {
				return err
			}
			last := recs[len(recs)-1].LSN
			if err := s.applyRun(apply, recs); err != nil {
				return fmt.Errorf("applying waves %d-%d: %w", recs[0].LSN, last, err)
			}
			peer.note(last, false)
			if err := rr.ack(last); err != nil {
				return err
			}
		case wire.KindReplHeartbeat:
			lsn, err := wire.DecodeReplHeartbeat(frame)
			if err != nil {
				return err
			}
			peer.note(lsn, true)
		case wire.KindReplSnapshotBegin:
			if !applySnapshot {
				return errNeedsSnapshot
			}
			if _, err := rr.readSnapshot(frame, func(chunk []store.LogEntry) error {
				return s.applyRun(apply, []store.LogRecord{{Entries: chunk}})
			}); err != nil {
				return err
			}
		case wire.KindHandoffCommit:
			if commit == nil {
				return fmt.Errorf("unexpected frame kind %#x", kind)
			}
			hc, err := wire.DecodeHandoffCommit(frame)
			if err != nil {
				return err
			}
			return commit(hc)
		case wire.KindStreamError:
			return refusal(frame)
		case wire.KindStreamDrain:
			return errors.New("peer draining")
		default:
			return fmt.Errorf("unexpected frame kind %#x", kind)
		}
	}
}

// applyRun applies one run of shipped records, timed as the repl_apply
// stage and counted, record by record, in replApplyRecords.
func (s *Server) applyRun(apply func([]store.LogRecord) error, recs []store.LogRecord) error {
	start := time.Now()
	if err := apply(recs); err != nil {
		return err
	}
	s.met.obs().stage("repl_apply", time.Since(start))
	s.met.replApplyRecords.Add(uint64(len(recs)))
	return nil
}

// refusal is the error a peer's stream error frame reports.
func refusal(frame []byte) error {
	se, err := wire.DecodeStreamError(frame)
	if err != nil {
		return err
	}
	return fmt.Errorf("peer refused: %d %s", se.Status, se.Message)
}

// replApplyRunBytes bounds the wave-frame bytes one grouped apply gathers,
// as replSnapshotChunkBytes bounds a snapshot chunk.
const replApplyRunBytes = 1 << 20

// replReader is the consuming end of a log-shipping session: it reads the
// producer's frames, gathers runs of wave frames for grouped applies, and
// writes the acks.
type replReader struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration // per blocking frame read

	// held is the non-wave frame that ended the last run; next returns it
	// before reading on.
	held     []byte
	heldKind byte

	// The current run, reused across runs: an apply keeps no reference to
	// either slice (entries point into each wave's own frame, fresh per
	// read). decoded is the reused scratch one frame's entries decode
	// into; ackBuf is the reused ack frame.
	recs    []store.LogRecord
	entries []store.LogEntry
	decoded []wire.ReplEntry
	ackBuf  []byte
}

// next returns the frame that ended the last run, if any, else reads one.
func (rr *replReader) next() ([]byte, byte, error) {
	if frame := rr.held; frame != nil {
		rr.held = nil
		return frame, rr.heldKind, nil
	}
	rr.conn.SetReadDeadline(time.Now().Add(rr.timeout))
	frame, err := wire.ReadStreamFrame(rr.br, replFrameMax)
	if err != nil {
		return nil, 0, err
	}
	kind, err := wire.FrameKind(frame)
	return frame, kind, err
}

// ack acknowledges every shipped record through lsn.
func (rr *replReader) ack(lsn uint64) error {
	rr.ackBuf = wire.AppendReplAck(rr.ackBuf[:0], lsn)
	return writeFlushed(rr.conn, rr.bw, rr.ackBuf)
}

// waveRun decodes frame, a wave, as the first record of a run, then keeps
// taking the wave frames the peer has already put on the wire. It stops
// when the read buffer is empty — it never waits for a frame that is not
// there yet — at replApplyRunBytes of frame bytes, or at the first frame of
// another kind, which next returns once the caller has applied and acked
// the run. The records stay valid until the next waveRun or readSnapshot.
func (rr *replReader) waveRun(frame []byte) ([]store.LogRecord, error) {
	rr.recs, rr.entries = rr.recs[:0], rr.entries[:0]
	for size := 0; ; {
		wv, err := wire.DecodeReplWaveInto(frame, rr.decoded)
		if err != nil {
			return nil, err
		}
		rr.decoded = wv.Entries
		start := len(rr.entries)
		for _, e := range wv.Entries {
			rr.entries = append(rr.entries, store.LogEntry(e))
		}
		end := len(rr.entries)
		rr.recs = append(rr.recs, store.LogRecord{LSN: wv.LSN, Annotation: wv.Annotation, Entries: rr.entries[start:end:end]})
		if size += len(frame); size >= replApplyRunBytes || rr.br.Buffered() == 0 {
			return rr.recs, nil
		}
		if frame, err = wire.ReadStreamFrame(rr.br, replFrameMax); err != nil {
			return nil, err
		}
		kind, err := wire.FrameKind(frame)
		if err != nil {
			return nil, err
		}
		if kind != wire.KindReplWave {
			rr.held, rr.heldKind = frame, kind
			return rr.recs, nil
		}
	}
}

// readSnapshot reads the chunk and end frames of the snapshot that begin,
// a snapshot-begin frame, opened, handing each chunk's pairs to chunk; the
// pairs stay valid until the next waveRun or readSnapshot. It refuses a
// snapshot whose pair count or end position differs from what begin
// declared — after the chunks went to chunk, so a caller that applies them
// as they arrive must not treat them as complete until it returns nil.
func (rr *replReader) readSnapshot(begin []byte, chunk func([]store.LogEntry) error) (wire.ReplSnapshotBegin, error) {
	b, err := wire.DecodeReplSnapshotBegin(begin)
	if err != nil {
		return b, err
	}
	var pairs uint64
	for {
		frame, kind, err := rr.next()
		if err != nil {
			return b, fmt.Errorf("snapshot transfer: %w", err)
		}
		switch kind {
		case wire.KindReplSnapshotChunk:
			entries, err := wire.DecodeReplSnapshotChunk(frame)
			if err != nil {
				return b, err
			}
			rr.entries = rr.entries[:0]
			for _, e := range entries {
				rr.entries = append(rr.entries, store.LogEntry(e))
			}
			pairs += uint64(len(entries))
			if err := chunk(rr.entries); err != nil {
				return b, err
			}
		case wire.KindReplSnapshotEnd:
			endLSN, err := wire.DecodeReplSnapshotEnd(frame)
			if err != nil {
				return b, err
			}
			if endLSN != b.SnapshotLSN {
				return b, fmt.Errorf("snapshot end lsn %d, began at %d", endLSN, b.SnapshotLSN)
			}
			if pairs != b.Pairs {
				return b, fmt.Errorf("snapshot carried %d pairs, begin declared %d", pairs, b.Pairs)
			}
			return b, nil
		default:
			return b, fmt.Errorf("unexpected frame kind %#x inside snapshot", kind)
		}
	}
}

// leaderHostPort normalizes a leader address: a bare host:port passes
// through, a URL contributes its host.
func leaderHostPort(addr string) (string, error) {
	if strings.Contains(addr, "://") {
		u, err := url.Parse(addr)
		if err != nil {
			return "", fmt.Errorf("server: parsing leader address: %w", err)
		}
		if u.Host == "" {
			return "", fmt.Errorf("server: leader address %q has no host", addr)
		}
		addr = u.Host
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return "", fmt.Errorf("server: leader address %q is not host:port: %w", addr, err)
	}
	return addr, nil
}

// dialRepl opens a log-shipping session with a producer: TCP dial, HTTP
// upgrade on wire.ReplPath, the producer's hello, then the opening frame (a
// replication or handoff subscribe). Each frame read on the returned
// reader waits at most timeout.
func dialRepl(peerAddr string, opening []byte, timeout time.Duration) (*replReader, error) {
	addr, err := leaderHostPort(peerAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", addr, replDialTimeout)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			conn.Close()
		}
	}()
	conn.SetDeadline(time.Now().Add(replDialTimeout))
	br := bufio.NewReaderSize(conn, replBufBytes)
	req := "GET " + wire.ReplPath + " HTTP/1.1\r\nHost: " + addr +
		"\r\nConnection: Upgrade\r\nUpgrade: " + wire.StreamProtocol + "\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(br, &http.Request{Method: "GET"})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		msg := strings.TrimSpace(string(raw))
		return nil, fmt.Errorf("server: %s answered %d to the replication upgrade: %s", addr, resp.StatusCode, msg)
	}
	frame, err := wire.ReadStreamFrame(br, 1<<20)
	if err != nil {
		return nil, fmt.Errorf("server: reading replication hello: %w", err)
	}
	if kind, kerr := wire.FrameKind(frame); kerr == nil && kind == wire.KindStreamError {
		return nil, fmt.Errorf("server: %s: %w", addr, refusal(frame))
	}
	if _, err := wire.DecodeStreamHello(frame); err != nil {
		return nil, fmt.Errorf("server: decoding replication hello: %w", err)
	}
	rr := &replReader{conn: conn, br: br, bw: bufio.NewWriter(conn), timeout: timeout}
	if err := writeFlushed(conn, rr.bw, opening); err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	ok = true
	return rr, nil
}

// BootstrapFollower prepares a follower's data directory before its core
// opens: it subscribes to the leader from the directory's committed
// position and, if the leader answers with a snapshot (the position
// predates the retained log floor — always true for a fresh directory
// against a pruned leader), restores it at the store level. The restore is
// all or nothing (store.RestoreSnapshot): on an error the directory keeps
// its committed position and none of the snapshot, so a retried bootstrap
// subscribes from the same place. The core then opens on the restored
// state and the in-process follower loop resumes from the snapshot
// position. Returns the restored snapshot bytes (zero when the position
// was still retained and no snapshot was needed).
func BootstrapFollower(dataDir, leaderAddr string, stOpts store.Options) (restored int64, err error) {
	db, err := store.Open(dataDir, stOpts)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}()
	rr, err := dialRepl(leaderAddr, wire.EncodeReplSubscribe(wire.ReplSubscribe{
		FromLSN: db.AppliedLSN() + 1,
		Window:  defaultReplWindow,
	}), snapshotReadTimeout)
	if err != nil {
		return 0, err
	}
	defer rr.conn.Close()

	frame, kind, err := rr.next()
	if err != nil {
		return 0, fmt.Errorf("server: bootstrap probe: %w", err)
	}
	switch kind {
	case wire.KindReplWave, wire.KindReplHeartbeat:
		// The position is still retained: the runtime loop can resume
		// directly. (The leader started streaming to this probe; dropping
		// the connection is fine, nothing was acked.)
		return 0, nil
	case wire.KindReplSnapshotBegin:
	case wire.KindStreamError:
		return 0, fmt.Errorf("server: bootstrap: %w", refusal(frame))
	default:
		return 0, fmt.Errorf("server: unexpected bootstrap frame kind %#x", kind)
	}

	var pairs []store.LogEntry
	begin, err := rr.readSnapshot(frame, func(chunk []store.LogEntry) error {
		pairs = append(pairs, chunk...)
		for _, p := range chunk {
			restored += int64(len(p.Key) + len(p.Value))
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("server: bootstrap: %w", err)
	}
	if err := db.RestoreSnapshot(pairs, begin.SnapshotLSN); err != nil {
		return 0, err
	}
	return restored, nil
}
