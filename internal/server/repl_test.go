package server

import (
	"errors"
	"fmt"
	"io"
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
	"repro/internal/store"
	"repro/internal/wire"
)

// readBoth issues the same GET against two nodes and asserts they answer
// identically — the convergence check for the read path, independent of
// each endpoint's domain semantics (a cold-start 409 must match too).
func readBoth(t *testing.T, leaderURL, followerURL, path string) {
	t.Helper()
	fetch := func(base string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	lCode, lBody := fetch(leaderURL)
	fCode, fBody := fetch(followerURL)
	if lCode != fCode || lBody != fBody {
		t.Fatalf("GET %s diverged: leader %d %q, follower %d %q", path, lCode, lBody, fCode, fBody)
	}
}

// replStatus fetches one node's /v1/replication/status.
func replStatus(t *testing.T, url string) wire.ReplicationStatus {
	t.Helper()
	var st wire.ReplicationStatus
	if code, _ := doJSON(t, "GET", url+"/v1/replication/status", nil, &st); code != http.StatusOK {
		t.Fatalf("replication status: %d", code)
	}
	return st
}

// waitCaughtUp polls a follower's status until it has applied through the
// target position on a live stream.
func waitCaughtUp(t *testing.T, url string, target uint64) wire.ReplicationStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := replStatus(t, url)
		if st.AppliedLSN >= target && st.State == "streaming" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d (state %q), want >= %d", st.AppliedLSN, st.State, target)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitLeaderAcked polls a leader's status until its one follower's acked
// position reaches target. A follower acks only after its apply, and the
// leader's ack reader stores the ack later still, so the leader can lag a
// caught-up follower's own status for a moment.
func waitLeaderAcked(t *testing.T, url string, target uint64) wire.ReplicationStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := replStatus(t, url)
		if len(st.Followers) > 1 {
			t.Fatalf("leader sees %d followers, want 1", len(st.Followers))
		}
		if len(st.Followers) == 1 && st.Followers[0].AckedLSN >= target {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never saw its follower ack %d: %+v", target, st.Followers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicationFollowerServesReads is the serving-layer half of the
// convergence story: a fresh follower resumes the leader's retained log
// over the wire, applies every wave through its own core, and then serves
// the read API from replicated state while bouncing writes back to the
// leader.
func TestReplicationFollowerServesReads(t *testing.T) {
	clk := clock.NewSimulated(t0.Add(24 * time.Hour))
	leaderTS, _ := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 2, Clock: clk},
		Options{})

	for user := uint64(1); user <= 3; user++ {
		if code, _ := doJSON(t, "POST", leaderTS.URL+"/v1/users",
			wire.RegisterRequest{UserID: user, Objective: []float64{30, 1}}, nil); code != http.StatusCreated {
			t.Fatalf("register %d: %d", user, code)
		}
		ingestOne(t, leaderTS.URL, user)
	}
	leaderSt := replStatus(t, leaderTS.URL)
	if leaderSt.Role != "leader" {
		t.Fatalf("leader role %q", leaderSt.Role)
	}
	if leaderSt.AppliedLSN == 0 {
		t.Fatal("leader applied lsn is zero after commits")
	}

	followerTS, followerSPA := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 2, Clock: clk},
		Options{FollowerOf: leaderTS.URL})
	st := waitCaughtUp(t, followerTS.URL, leaderSt.AppliedLSN)
	if st.Role != "follower" || st.Leader == "" {
		t.Fatalf("follower status role %q leader %q", st.Role, st.Leader)
	}
	if st.LagWaves != 0 {
		t.Fatalf("caught-up follower reports lag %d", st.LagWaves)
	}

	// Replicated state serves the read API identically to the leader.
	if users := followerSPA.Users(); users != 3 {
		t.Fatalf("follower sees %d users, want 3", users)
	}
	for _, path := range []string{
		"/v1/users/1/propensity",
		"/v1/users/1/sensibilities",
		"/v1/users/2/recommendations?n=3",
		"/v1/select-top?k=2",
	} {
		readBoth(t, leaderTS.URL, followerTS.URL, path)
	}

	// Writes bounce with 421 and the leader's address, on every write
	// endpoint.
	leaderAddr := strings.TrimPrefix(leaderTS.URL, "http://")
	for _, w := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/users", wire.RegisterRequest{UserID: 9, Objective: []float64{30, 1}}},
		{"POST", "/v1/ingest", wire.IngestRequest{}},
		{"POST", "/v1/users/1/answer", wire.AnswerRequest{}},
		{"POST", "/v1/users/1/reward", wire.AttributesRequest{}},
		{"POST", "/v1/users/1/punish", wire.AttributesRequest{}},
	} {
		code, hdr := doJSON(t, w.method, followerTS.URL+w.path, w.body, nil)
		if code != http.StatusMisdirectedRequest {
			t.Fatalf("%s %s on follower: %d, want 421", w.method, w.path, code)
		}
		if got := hdr.Get("X-SPA-Leader"); got != leaderAddr {
			t.Fatalf("%s %s X-SPA-Leader %q, want %q", w.method, w.path, got, leaderAddr)
		}
	}

	// New leader commits flow through the live stream.
	ingestOne(t, leaderTS.URL, 2)
	after := replStatus(t, leaderTS.URL)
	waitCaughtUp(t, followerTS.URL, after.AppliedLSN)

	// The leader sees its follower, acked through the new commit.
	leaderSt = waitLeaderAcked(t, leaderTS.URL, after.AppliedLSN)
	if got := leaderSt.Followers[0].AckedLSN; got != after.AppliedLSN {
		t.Fatalf("leader follower acked %d, want %d", got, after.AppliedLSN)
	}

	// Both exposition formats carry the replication series, and the
	// follower's apply work landed in the repl_apply stage histogram.
	fams, raw := fetchProm(t, followerTS.URL)
	applied, ok := fams["spad_repl_applied_lsn"]
	if !ok {
		t.Fatalf("no spad_repl_applied_lsn family:\n%s", raw)
	}
	if got := applied.Samples["spad_repl_applied_lsn"]; got < float64(after.AppliedLSN) {
		t.Fatalf("prom applied lsn %v, want >= %d", got, after.AppliedLSN)
	}
	if _, ok := fams["spad_repl_lag_waves"]; !ok {
		t.Fatal("no spad_repl_lag_waves family")
	}
	stageKey := `spad_stage_duration_seconds_count{stage="repl_apply"}`
	if cnt := fams["spad_stage_duration_seconds"].Samples[stageKey]; cnt == 0 {
		t.Fatalf("repl_apply stage histogram empty:\n%s", raw)
	}
	var jm wire.Metrics
	if code, _ := doJSON(t, "GET", followerTS.URL+"/metrics", nil, &jm); code != http.StatusOK {
		t.Fatal("follower json metrics")
	}
	if jm.ReplRole != "follower" || jm.ReplAppliedLSN < after.AppliedLSN {
		t.Fatalf("json metrics role %q applied %d", jm.ReplRole, jm.ReplAppliedLSN)
	}

	leaderFams, _ := fetchProm(t, leaderTS.URL)
	if got := leaderFams["spad_repl_followers"].Samples["spad_repl_followers"]; got != 1 {
		t.Fatalf("leader spad_repl_followers %v, want 1", got)
	}
}

// TestReplicationSnapshotBootstrap covers the catch-up path: a leader
// whose history budget pruned the early log answers a fresh follower's
// probe with a state snapshot; BootstrapFollower restores it at the store
// level before the core opens, and the runtime loop resumes from the
// snapshot position.
func TestReplicationSnapshotBootstrap(t *testing.T) {
	clk := clock.NewSimulated(t0.Add(24 * time.Hour))
	stOpts := store.Options{MemtableBytes: 2 << 10, LogRetainBytes: 1}
	leaderTS, _ := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 2, Store: stOpts, Clock: clk},
		Options{})

	// Churn until memtable flushes have sealed and pruned the early WAL:
	// the log floor moving past 1 proves a fresh follower cannot tail from
	// the beginning.
	var floor uint64
	var registered int
	for user := uint64(1); user <= 500 && floor <= 1; user++ {
		if code, _ := doJSON(t, "POST", leaderTS.URL+"/v1/users",
			wire.RegisterRequest{UserID: user, Objective: []float64{30, 1}}, nil); code != http.StatusCreated {
			t.Fatalf("register %d: %d", user, code)
		}
		ingestOne(t, leaderTS.URL, user)
		registered++
		floor = replStatus(t, leaderTS.URL).LogFloorLSN
	}
	if floor <= 1 {
		t.Fatal("leader log floor never advanced; cannot exercise the snapshot path")
	}
	leaderSt := replStatus(t, leaderTS.URL)

	leaderAddr := strings.TrimPrefix(leaderTS.URL, "http://")
	followerDir := t.TempDir()
	restored, err := BootstrapFollower(followerDir, leaderAddr, store.Options{})
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if restored == 0 {
		t.Fatal("bootstrap restored zero bytes below the log floor")
	}

	followerTS, followerSPA := testServer(t,
		core.Options{DataDir: followerDir, Shards: 2, Clock: clk},
		Options{FollowerOf: leaderAddr, FollowerBootstrapBytes: restored})
	st := waitCaughtUp(t, followerTS.URL, leaderSt.AppliedLSN)
	if st.SnapshotBytes != restored {
		t.Fatalf("follower snapshot bytes %d, want %d", st.SnapshotBytes, restored)
	}

	// The bootstrapped state is complete: every registered user is there,
	// including user 1, whose register wave exists only inside the
	// snapshot (its log record was pruned).
	if users := followerSPA.Users(); users != registered {
		t.Fatalf("follower sees %d users, want %d", users, registered)
	}
	// Profile-backed reads match the leader exactly. (CF interaction
	// counts are process-local by design — a restarted leader starts cold
	// too — so recommendation parity is out of scope for the snapshot
	// path; the live-stream test covers it.)
	for _, user := range []int{1, registered / 2, registered} {
		readBoth(t, leaderTS.URL, followerTS.URL, fmt.Sprintf("/v1/users/%d/propensity", user))
		readBoth(t, leaderTS.URL, followerTS.URL, fmt.Sprintf("/v1/users/%d/sensibilities", user))
	}

	// The leader accounted the shipped snapshot chunks.
	if leaderSt := replStatus(t, leaderTS.URL); leaderSt.SnapshotBytes == 0 {
		t.Fatal("leader shipped a snapshot but reports zero snapshot bytes")
	}
}

// TestReplicationRefusals pins the role checks around the stream: a
// non-durable node refuses to lead, and a follower refuses both chained
// replication and streamed ingest.
func TestReplicationRefusals(t *testing.T) {
	memTS, _ := testServer(t, core.Options{Shards: 1}, Options{})
	resp, err := http.Get(memTS.URL + wire.ReplPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("non-durable leader answered %d, want 501", resp.StatusCode)
	}
	if st := replStatus(t, memTS.URL); st.Role != "none" {
		t.Fatalf("in-memory node role %q, want none", st.Role)
	}

	clk := clock.NewSimulated(t0.Add(24 * time.Hour))
	leaderTS, _ := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 1, Clock: clk},
		Options{})
	followerTS, _ := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 1, Clock: clk},
		Options{FollowerOf: leaderTS.URL})

	resp, err = http.Get(followerTS.URL + wire.ReplPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower answered %d to a replication subscribe, want 421", resp.StatusCode)
	}
}

// gatedSyncOps is a store.FileOps over the real filesystem whose WAL syncs
// are counted and, while the gate is held, block until it is released.
type gatedSyncOps struct {
	syncs atomic.Int64
	mu    sync.Mutex
	gate  chan struct{} // non-nil while held
}

func (g *gatedSyncOps) hold() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedSyncOps) release() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *gatedSyncOps) Create(name string) (store.SegFile, error) { return os.Create(name) }
func (g *gatedSyncOps) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (g *gatedSyncOps) Remove(name string) error                  { return os.Remove(name) }
func (g *gatedSyncOps) OpenWAL(name string) (store.WALFile, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &gatedWAL{File: f, ops: g}, nil
}

type gatedWAL struct {
	*os.File
	ops *gatedSyncOps
}

func (w *gatedWAL) Sync() error {
	w.ops.syncs.Add(1)
	w.ops.mu.Lock()
	gate := w.ops.gate
	w.ops.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return w.File.Sync()
}

// TestFollowerAppliesBacklogAsOneGroup: waves that pile up on the wire
// while the follower is stuck in a WAL sync apply as one group once it
// unsticks — one repl_apply, one sync and one ack for the backlog, not one
// per wave.
func TestFollowerAppliesBacklogAsOneGroup(t *testing.T) {
	clk := clock.NewSimulated(t0.Add(24 * time.Hour))
	leaderSPA, err := core.New(core.Options{DataDir: t.TempDir(), Shards: 4, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	leader := New(leaderSPA, Options{})
	leaderTS := httptest.NewServer(leader)
	t.Cleanup(func() {
		leaderTS.Close()
		leader.Close()
		leaderSPA.Close()
	})
	users := []uint64{1, 2, 3}
	for _, id := range users {
		if err := leaderSPA.Register(id, []float64{30, 1}); err != nil {
			t.Fatal(err)
		}
	}

	gate := &gatedSyncOps{}
	followerTS, _ := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 4, Clock: clk,
			Store: store.Options{SyncWrites: true, FileOps: gate}},
		Options{FollowerOf: leaderTS.URL})
	t.Cleanup(gate.release) // runs before the servers close, even on failure
	start, _ := leaderSPA.AppliedLSN()
	waitCaughtUp(t, followerTS.URL, start)

	const stageKey = `spad_stage_duration_seconds_count{stage="repl_apply"}`
	applies := func() float64 {
		fams, _ := fetchProm(t, followerTS.URL)
		return fams["spad_stage_duration_seconds"].Samples[stageKey]
	}
	applies0, syncs0 := applies(), gate.syncs.Load()

	// Stall the follower's next sync, then commit 20 single-shard records.
	gate.hold()
	const waves = 20
	for i := 0; i < waves; i++ {
		ev := lifelog.Event{UserID: users[i%len(users)], Time: t0.Add(time.Duration(i) * time.Second),
			Type: lifelog.EventClick, Action: uint32(i)}
		if _, _, err := leaderSPA.IngestEvents([]lifelog.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	target, _ := leaderSPA.AppliedLSN()
	if target != start+waves {
		t.Fatalf("leader at %d after %d single-shard commits from %d", target, waves, start)
	}
	// Every wave is on the wire before the follower unsticks.
	deadline := time.Now().Add(10 * time.Second)
	for {
		leader.replMu.Lock()
		var sent uint64
		for sess := range leader.repls {
			sent = max(sent, sess.sent.Load())
		}
		leader.replMu.Unlock()
		if sent >= target {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader shipped through %d, want %d", sent, target)
		}
		time.Sleep(5 * time.Millisecond)
	}
	gate.release()
	waitCaughtUp(t, followerTS.URL, target)
	waitLeaderAcked(t, leaderTS.URL, target)

	nApplies, nSyncs := applies()-applies0, gate.syncs.Load()-syncs0
	t.Logf("%d waves: %v repl_apply calls, %d WAL syncs", waves, nApplies, nSyncs)
	if nApplies > 3 || nSyncs > 3 {
		t.Fatalf("follower applied %d waves in %v repl_apply calls and %d WAL syncs, want at most 3 of each",
			waves, nApplies, nSyncs)
	}
	for _, id := range users {
		readBoth(t, leaderTS.URL, followerTS.URL, fmt.Sprintf("/v1/users/%d/sensibilities", id))
		readBoth(t, leaderTS.URL, followerTS.URL, fmt.Sprintf("/v1/users/%d/recommendations?n=5", id))
	}
}

// TestSessionWaitAcked covers the handoff fence's ack wait: it returns as
// soon as the ack lands, times out (the source's 504 path) when it never
// does, and returns when the session closes.
func TestSessionWaitAcked(t *testing.T) {
	newSess := func() *replSession {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		return &replSession{conn: a, closedCh: make(chan struct{})}
	}
	wait := func(sess *replSession, lsn uint64, timeout time.Duration) <-chan error {
		done := make(chan error, 1)
		go func() { done <- sess.waitAcked(lsn, timeout) }()
		return done
	}

	t.Run("acked", func(t *testing.T) {
		sess := newSess()
		done := wait(sess, 10, time.Minute)
		sess.noteAcked(4) // short of the target: keeps waiting
		select {
		case err := <-done:
			t.Fatalf("returned at ack 4 of 10: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		sess.noteAcked(10)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ack through the target did not wake the wait")
		}
		if err := sess.waitAcked(7, time.Minute); err != nil {
			t.Fatalf("already acked: %v", err)
		}
	})
	t.Run("timeout", func(t *testing.T) {
		sess := newSess()
		sess.noteAcked(3)
		err := sess.waitAcked(5, 20*time.Millisecond)
		if !errors.Is(err, errAckWaitTimeout) {
			t.Fatalf("err = %v, want errAckWaitTimeout", err)
		}
	})
	t.Run("closed", func(t *testing.T) {
		sess := newSess()
		done := wait(sess, 5, time.Minute)
		sess.shutdown()
		select {
		case err := <-done:
			if err == nil || errors.Is(err, errAckWaitTimeout) {
				t.Fatalf("err = %v, want a session-closed error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("session close did not wake the wait")
		}
	})
}
