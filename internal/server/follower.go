package server

// Follower-side replication (DESIGN.md §9). A follower spad is a normal
// durable instance whose writes arrive over the replication stream
// instead of the ingest endpoints: it dials the leader, subscribes from
// its own committed position, and applies every run of waves already on
// the wire through core.ApplyReplicatedWaves — the same store-commit +
// shard-install + snapshot-publish sequence the leader's commit stage ran,
// with one WAL sync and one cumulative ack per run — so every read API
// serves from state that converges to the leader's at the applied
// position. Client-facing writes answer 421 + the leader's address
// (rejectFollowerWrite in server.go).
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
	// defaultReplWindow is the wave credit a follower grants its leader.
	defaultReplWindow = 256
	// replDialTimeout bounds connect + upgrade + hello + subscribe.
	replDialTimeout = 10 * time.Second
	// replReadTimeout bounds one frame wait on the follower; the leader
	// heartbeats every second, so several missed intervals mean a dead
	// connection, not an idle one.
	replReadTimeout = 10 * time.Second
	// replBackoffMax caps the reconnect backoff.
	replBackoffMax = 5 * time.Second
)

var errFollowerStopped = errors.New("server: follower stopped")

// errNeedsSnapshot marks a mid-run resume the leader answered with a
// snapshot: the follower fell behind the retained history.
var errNeedsSnapshot = errors.New("server: follower fell behind the leader's retained log; restart to re-bootstrap")

// follower is the in-process replication loop of a FollowerOf server.
type follower struct {
	srv    *Server
	leader string // host:port
	window int

	stop chan struct{}
	done chan struct{}

	mu            sync.Mutex
	state         string // "connecting", "streaming", "stalled"
	lastErr       string
	leaderLSN     uint64
	lastHeartbeat time.Time
	conn          net.Conn // live connection, closed by stopWait to unblock reads
}

func newFollower(s *Server, leader string, window int) *follower {
	if window <= 0 {
		window = defaultReplWindow
	}
	if window > wire.MaxStreamCredit {
		window = wire.MaxStreamCredit
	}
	return &follower{
		srv:    s,
		leader: leader,
		window: window,
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
			f.setState("stalled", err.Error())
			f.srv.logf("spad: replication: %v", err)
			backoff = replBackoffMax
		} else {
			f.setState("connecting", err.Error())
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

func (f *follower) setState(state, lastErr string) {
	f.mu.Lock()
	f.state = state
	f.lastErr = lastErr
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

func (f *follower) noteWave(lsn uint64) {
	f.mu.Lock()
	if lsn > f.leaderLSN {
		f.leaderLSN = lsn
	}
	f.mu.Unlock()
}

func (f *follower) noteHeartbeat(leaderLSN uint64) {
	f.mu.Lock()
	if leaderLSN > f.leaderLSN {
		f.leaderLSN = leaderLSN
	}
	f.lastHeartbeat = time.Now()
	f.mu.Unlock()
}

// fillStatus adds the follower's live view to a status snapshot.
func (f *follower) fillStatus(st *wire.ReplicationStatus, applied uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st.State = f.state
	st.LeaderLSN = f.leaderLSN
	if !f.lastHeartbeat.IsZero() {
		st.LastHeartbeatUnixNano = f.lastHeartbeat.UnixNano()
	}
	if f.leaderLSN > applied {
		st.LagWaves = f.leaderLSN - applied
	}
}

// lagWaves reports how far the follower trails the last reported leader
// position.
func (f *follower) lagWaves(applied uint64) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.leaderLSN > applied {
		return f.leaderLSN - applied
	}
	return 0
}

// session runs one connection: dial, subscribe from the local applied
// position, then apply waves until the connection dies.
func (f *follower) session() error {
	applied, ok := f.srv.spa.AppliedLSN()
	if !ok {
		// Misconfiguration, not a transient: park until stopped.
		f.setState("stalled", "replication requires a durable store")
		<-f.stop
		return errFollowerStopped
	}
	conn, br, bw, hello, err := dialRepl(f.leader, applied+1, f.window)
	if err != nil {
		return err
	}
	if !f.adoptConn(conn) {
		conn.Close()
		return errFollowerStopped
	}
	defer conn.Close()
	f.setState("streaming", "")

	rr := &replReader{conn: conn, br: br, maxFrame: hello.MaxFrameBytes, timeout: replReadTimeout}
	var ack []byte
	for {
		frame, kind, err := rr.next()
		if err != nil {
			select {
			case <-f.stop:
				return errFollowerStopped
			default:
			}
			return err
		}
		switch kind {
		case wire.KindReplWave:
			// Group commit: every wave already on the wire applies as one
			// run — one WAL sync, one shard install, one cumulative ack.
			recs, err := rr.waveRun(frame)
			if err != nil {
				return err
			}
			last := recs[len(recs)-1].LSN
			applyStart := time.Now()
			if err := f.srv.spa.ApplyReplicatedWaves(recs); err != nil {
				return fmt.Errorf("applying waves %d-%d: %w", recs[0].LSN, last, err)
			}
			f.srv.met.obs().stage("repl_apply", time.Since(applyStart))
			f.noteWave(last)
			ack = wire.AppendReplAck(ack[:0], last)
			if err := writeFlushFrame(conn, bw, ack); err != nil {
				return err
			}
		case wire.KindReplHeartbeat:
			lsn, err := wire.DecodeReplHeartbeat(frame)
			if err != nil {
				return err
			}
			f.noteHeartbeat(lsn)
		case wire.KindReplSnapshotBegin:
			// Our position predates the leader's retained history; a
			// snapshot cannot be installed into a live core (the shard
			// memory was loaded at New), so park stalled.
			return errNeedsSnapshot
		case wire.KindStreamError:
			se, derr := wire.DecodeStreamError(frame)
			if derr != nil {
				return derr
			}
			return fmt.Errorf("leader refused: %d %s", se.Status, se.Message)
		case wire.KindStreamDrain:
			return errors.New("leader draining")
		default:
			return fmt.Errorf("unexpected frame kind %#x", kind)
		}
	}
}

// replApplyRunBytes bounds the wave-frame bytes one grouped apply gathers,
// as replSnapshotChunkBytes bounds a snapshot chunk.
const replApplyRunBytes = 1 << 20

// replReader reads the frames of a replication or handoff stream on the
// consuming side and gathers runs of wave frames for grouped applies.
type replReader struct {
	conn     net.Conn
	br       *bufio.Reader
	maxFrame int64
	timeout  time.Duration // per blocking frame read

	// held is the non-wave frame that ended the last run; next returns it
	// before reading on.
	held     []byte
	heldKind byte

	// The current run, reused across runs: an apply keeps no reference to
	// either slice (entries point into each wave's own frame, fresh per
	// read).
	recs    []store.LogRecord
	entries []store.LogEntry
}

// next returns the frame that ended the last run, if any, else reads one.
func (rr *replReader) next() ([]byte, byte, error) {
	if frame := rr.held; frame != nil {
		rr.held = nil
		return frame, rr.heldKind, nil
	}
	rr.conn.SetReadDeadline(time.Now().Add(rr.timeout))
	frame, err := wire.ReadStreamFrame(rr.br, rr.maxFrame)
	if err != nil {
		return nil, 0, err
	}
	kind, err := wire.FrameKind(frame)
	return frame, kind, err
}

// waveRun decodes frame, a wave, as the first record of a run, then keeps
// taking the wave frames the peer has already put on the wire. It stops
// when the read buffer is empty — it never waits for a frame that is not
// there yet — at replApplyRunBytes of frame bytes, or at the first frame of
// another kind, which next returns once the caller has applied and acked
// the run. The records stay valid until the next waveRun.
func (rr *replReader) waveRun(frame []byte) ([]store.LogRecord, error) {
	rr.recs, rr.entries = rr.recs[:0], rr.entries[:0]
	for size := 0; ; {
		wv, err := wire.DecodeReplWave(frame)
		if err != nil {
			return nil, err
		}
		start := len(rr.entries)
		for _, e := range wv.Entries {
			rr.entries = append(rr.entries, store.LogEntry(e))
		}
		end := len(rr.entries)
		rr.recs = append(rr.recs, store.LogRecord{LSN: wv.LSN, Annotation: wv.Annotation, Entries: rr.entries[start:end:end]})
		if size += len(frame); size >= replApplyRunBytes || rr.br.Buffered() == 0 {
			return rr.recs, nil
		}
		if frame, err = wire.ReadStreamFrame(rr.br, rr.maxFrame); err != nil {
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

// dialRepl connects to a leader and completes the replication handshake:
// HTTP upgrade on wire.ReplPath, the leader's hello, then the subscribe.
// The returned connection has no deadline armed.
func dialRepl(leaderAddr string, fromLSN uint64, window int) (net.Conn, *bufio.Reader, *bufio.Writer, wire.StreamHello, error) {
	conn, br, bw, hello, err := dialUpgrade(leaderAddr)
	if err != nil {
		return nil, nil, nil, hello, err
	}
	if err := wire.WriteStreamFrame(bw, wire.EncodeReplSubscribe(wire.ReplSubscribe{
		FromLSN: fromLSN,
		Window:  window,
	})); err != nil {
		conn.Close()
		return nil, nil, nil, hello, err
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return nil, nil, nil, hello, err
	}
	conn.SetDeadline(time.Time{})
	return conn, br, bw, hello, nil
}

// dialUpgrade connects to a peer's replication endpoint and completes the
// transport handshake — TCP dial, HTTP upgrade on wire.ReplPath, the
// peer's hello — leaving the protocol's opening frame (replication or
// handoff subscribe) to the caller. The dial deadline is still armed on
// return; the caller clears it after writing its first frame.
func dialUpgrade(peerAddr string) (net.Conn, *bufio.Reader, *bufio.Writer, wire.StreamHello, error) {
	var hello wire.StreamHello
	addr, err := leaderHostPort(peerAddr)
	if err != nil {
		return nil, nil, nil, hello, err
	}
	conn, err := net.DialTimeout("tcp", addr, replDialTimeout)
	if err != nil {
		return nil, nil, nil, hello, err
	}
	conn.SetDeadline(time.Now().Add(replDialTimeout))
	br := bufio.NewReader(conn)
	req := "GET " + wire.ReplPath + " HTTP/1.1\r\nHost: " + addr +
		"\r\nConnection: Upgrade\r\nUpgrade: " + wire.StreamProtocol + "\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, nil, nil, hello, err
	}
	resp, err := http.ReadResponse(br, &http.Request{Method: "GET"})
	if err != nil {
		conn.Close()
		return nil, nil, nil, hello, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		conn.Close()
		msg := strings.TrimSpace(string(raw))
		return nil, nil, nil, hello, fmt.Errorf("server: leader %s answered %d to the replication upgrade: %s", addr, resp.StatusCode, msg)
	}
	frame, err := wire.ReadStreamFrame(br, 1<<20)
	if err != nil {
		conn.Close()
		return nil, nil, nil, hello, fmt.Errorf("server: reading replication hello: %w", err)
	}
	if kind, kerr := wire.FrameKind(frame); kerr == nil && kind == wire.KindStreamError {
		se, derr := wire.DecodeStreamError(frame)
		conn.Close()
		if derr != nil {
			return nil, nil, nil, hello, derr
		}
		return nil, nil, nil, hello, fmt.Errorf("server: leader refused replication: %d %s", se.Status, se.Message)
	}
	if hello, err = wire.DecodeStreamHello(frame); err != nil {
		conn.Close()
		return nil, nil, nil, hello, fmt.Errorf("server: decoding replication hello: %w", err)
	}
	return conn, br, bufio.NewWriter(conn), hello, nil
}

// BootstrapFollower prepares a follower's data directory before its core
// opens: it subscribes to the leader from the directory's committed
// position and, if the leader answers with a snapshot (the position
// predates the retained log floor — always true for a fresh directory
// against a pruned leader), restores it at the store level. The core then
// opens on the restored state and the in-process follower loop resumes
// from the snapshot position. Returns the restored snapshot bytes (zero
// when the position was still retained and no snapshot was needed).
func BootstrapFollower(dataDir, leaderAddr string, stOpts store.Options) (int64, error) {
	db, err := store.Open(dataDir, stOpts)
	if err != nil {
		return 0, err
	}
	restored, err := bootstrapStore(db, leaderAddr)
	cerr := db.Close()
	if err != nil {
		return 0, err
	}
	return restored, cerr
}

// bootstrapStore probes the leader once with the store's applied position
// and restores the snapshot if one is offered.
func bootstrapStore(db *store.DB, leaderAddr string) (int64, error) {
	conn, br, _, hello, err := dialRepl(leaderAddr, db.AppliedLSN()+1, defaultReplWindow)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	maxFrame := hello.MaxFrameBytes

	readFrame := func() ([]byte, byte, error) {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		frame, err := wire.ReadStreamFrame(br, maxFrame)
		if err != nil {
			return nil, 0, err
		}
		kind, err := wire.FrameKind(frame)
		if err != nil {
			return nil, 0, err
		}
		return frame, kind, nil
	}

	frame, kind, err := readFrame()
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
		se, derr := wire.DecodeStreamError(frame)
		if derr != nil {
			return 0, derr
		}
		return 0, fmt.Errorf("server: leader refused bootstrap: %d %s", se.Status, se.Message)
	default:
		return 0, fmt.Errorf("server: unexpected bootstrap frame kind %#x", kind)
	}

	begin, err := wire.DecodeReplSnapshotBegin(frame)
	if err != nil {
		return 0, err
	}
	var pairs []store.LogEntry
	var restored int64
	for {
		frame, kind, err := readFrame()
		if err != nil {
			return 0, fmt.Errorf("server: snapshot transfer: %w", err)
		}
		if kind == wire.KindReplSnapshotEnd {
			endLSN, err := wire.DecodeReplSnapshotEnd(frame)
			if err != nil {
				return 0, err
			}
			if endLSN != begin.SnapshotLSN {
				return 0, fmt.Errorf("server: snapshot end lsn %d, began at %d", endLSN, begin.SnapshotLSN)
			}
			break
		}
		if kind != wire.KindReplSnapshotChunk {
			return 0, fmt.Errorf("server: unexpected frame kind %#x inside snapshot", kind)
		}
		chunk, err := wire.DecodeReplSnapshotChunk(frame)
		if err != nil {
			return 0, err
		}
		for _, e := range chunk {
			pairs = append(pairs, store.LogEntry{Key: e.Key, Value: e.Value})
			restored += int64(len(e.Key) + len(e.Value))
		}
	}
	if uint64(len(pairs)) != begin.Pairs {
		return 0, fmt.Errorf("server: snapshot carried %d pairs, begin declared %d", len(pairs), begin.Pairs)
	}
	if err := db.RestoreSnapshot(pairs, begin.SnapshotLSN); err != nil {
		return 0, err
	}
	return restored, nil
}
