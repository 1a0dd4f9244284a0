package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/wire"
)

// replApplies reads a node's repl_apply stage count: one per applied wave
// run or snapshot chunk.
func replApplies(t *testing.T, url string) float64 {
	t.Helper()
	fams, _ := fetchProm(t, url)
	return fams["spad_stage_duration_seconds"].Samples[`spad_stage_duration_seconds_count{stage="repl_apply"}`]
}

// postIngest sends one JSON ingest without failing the test, so writer
// goroutines can use it; it returns the status and the bounce owner.
func postIngest(url string, req wire.IngestRequest) (int, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, "", err
	}
	resp, err := http.Post(url+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(wire.OwnerHeader), nil
}

// TestClusterHandoffShipsWavesUnderLiveWrites moves slots back and forth
// between two nodes while writers keep ingesting into them, retrying the
// fence's 503s and following the 421 after each flip — which must take one
// hop: the target answers 503, not a 421 back, until it adopts the slots
// the source has already flipped to it. Writes committed
// between a source's snapshot and its fence reach the target only as wave
// frames, so the target must apply wave runs, not only snapshot chunks; and
// every acknowledged write must read back byte-identically from the final
// owner, checked against a standalone node fed the same acked writes.
func TestClusterHandoffShipsWavesUnderLiveWrites(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, true)
	a, b := nodes["a"], nodes["b"]
	topo := fetchTopology(t, a.url())
	shadowTS, _ := testServer(t, core.Options{Shards: 4, Clock: clock.NewSimulated(t0.Add(24 * time.Hour))}, Options{})

	const writers, usersPer = 4, 2
	users := usersOwnedBy(topo, "a", 1, writers*usersPer)
	var slotSet keyspace.SlotSet
	for _, id := range users {
		slotSet.Add(keyspace.Partition(id))
		for _, url := range []string{a.url(), shadowTS.URL} {
			if code, _ := doJSON(t, "POST", url+"/v1/users",
				wire.RegisterRequest{UserID: id, Objective: []float64{30, 1}}, nil); code != http.StatusCreated {
				t.Fatalf("register %d on %s: %d", id, url, code)
			}
		}
	}

	// Each writer owns its users, so its acked writes, replayed in order,
	// reproduce their profiles exactly.
	stop := make(chan struct{})
	acked := make([][]wire.IngestRequest, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := a.url()
			bounced := false // the last answer for this request was a 421
			for seq := 1; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				id := users[w*usersPer+seq%usersPer]
				req := wire.IngestRequest{Events: wire.FromEvents([]lifelog.Event{{UserID: id,
					Time: t0.Add(time.Duration(seq) * time.Second), Type: lifelog.EventClick,
					Action: uint32(seq % lifelog.ActionUniverse)}})}
				for deadline := time.Now().Add(10 * time.Second); ; {
					code, bounce, err := postIngest(owner, req)
					if err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					if code == http.StatusOK {
						acked[w] = append(acked[w], req)
						bounced = false
						break
					}
					if code == http.StatusMisdirectedRequest && bounced {
						t.Errorf("writer %d: user %d bounced twice in a row (now to %s)", w, id, bounce)
						return
					}
					bounced = code == http.StatusMisdirectedRequest
					if time.Now().After(deadline) {
						t.Errorf("writer %d: user %d still answered %d after 10s", w, id, code)
						return
					}
					switch code {
					case http.StatusServiceUnavailable: // fenced: retry shortly
						time.Sleep(time.Millisecond)
					case http.StatusMisdirectedRequest: // flipped: follow the owner
						owner = "http://" + bounce
					default:
						t.Errorf("writer %d: ingest for user %d answered %d", w, id, code)
						return
					}
				}
			}
		}(w)
	}

	// A round's target applies one snapshot chunk (the moving users fit in
	// one) plus one apply per wave run, so more than one apply means waves
	// shipped. Whether a write lands between snapshot and fence is up to the
	// scheduler, so rounds repeat, alternating direction, until one does.
	slots := slotSet.Slots()
	from, to := a, b
	sawWaves := false
	for round := 0; round < 10 && !sawWaves && !t.Failed(); round++ {
		before := replApplies(t, to.url())
		var resp wire.HandoffResponse
		if code, _ := doJSON(t, "POST", to.url()+wire.HandoffPath,
			wire.HandoffRequest{Slots: slots}, &resp); code != http.StatusOK {
			t.Fatalf("round %d: handoff %s -> %s: %d", round, from.id, to.id, code)
		}
		if resp.Moved != len(slots) {
			t.Fatalf("round %d: moved %d slots, want %d", round, resp.Moved, len(slots))
		}
		sawWaves = replApplies(t, to.url())-before > 1
		from, to = to, from
	}
	owner := from                     // the last round's target
	time.Sleep(20 * time.Millisecond) // a few writes on the final owner too
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if !sawWaves {
		t.Fatal("no handoff round shipped a wave frame under live writes")
	}

	total := 0
	for _, reqs := range acked {
		for _, req := range reqs {
			if code, _ := doJSON(t, "POST", shadowTS.URL+"/v1/ingest", req, nil); code != http.StatusOK {
				t.Fatalf("shadow ingest: %d", code)
			}
		}
		total += len(reqs)
	}
	for _, id := range users {
		path := "/v1/users/" + strconv.FormatUint(id, 10) + "/sensibilities"
		if got, want := getBody(t, owner.url()+path), getBody(t, shadowTS.URL+path); got != want {
			t.Fatalf("user %d on %s diverged from its %d acked writes' replay:\ngot  %s\nwant %s", id, owner.id, total, got, want)
		}
	}
	t.Logf("%d acked writes across the handoffs", total)
}

// TestFollowerStallsWhenLeaderOffersSnapshot: a follower started without
// BootstrapFollower behind a leader that has pruned its early log is
// answered with a snapshot it cannot install into its live core. It parks
// stalled, applies nothing, and keeps serving reads.
func TestFollowerStallsWhenLeaderOffersSnapshot(t *testing.T) {
	clk := clock.NewSimulated(t0.Add(24 * time.Hour))
	leaderTS, _ := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 2, Clock: clk,
			Store: store.Options{MemtableBytes: 2 << 10, LogRetainBytes: 1}},
		Options{})
	// Churn until memtable flushes have pruned the early log.
	for user := uint64(1); replStatus(t, leaderTS.URL).LogFloorLSN <= 1; user++ {
		if user > 500 {
			t.Fatal("leader log floor never advanced; cannot exercise the snapshot path")
		}
		if code, _ := doJSON(t, "POST", leaderTS.URL+"/v1/users",
			wire.RegisterRequest{UserID: user, Objective: []float64{30, 1}}, nil); code != http.StatusCreated {
			t.Fatalf("register %d: %d", user, code)
		}
		ingestOne(t, leaderTS.URL, user)
	}

	followerTS, followerSPA := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 2, Clock: clk},
		Options{FollowerOf: leaderTS.URL})
	deadline := time.Now().Add(10 * time.Second)
	for replStatus(t, followerTS.URL).State != "stalled" {
		if time.Now().After(deadline) {
			t.Fatalf("follower never stalled: %+v", replStatus(t, followerTS.URL))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := replStatus(t, followerTS.URL); st.AppliedLSN != 0 || followerSPA.Users() != 0 {
		t.Fatalf("stalled follower applied through %d, holds %d users", st.AppliedLSN, followerSPA.Users())
	}
	for path, want := range map[string]int{
		"/v1/users/1/sensibilities": http.StatusNotFound,
		"/v1/select-top?k=2":        http.StatusConflict,
		"/healthz":                  http.StatusOK,
	} {
		if code, _ := doJSON(t, "GET", followerTS.URL+path, nil, nil); code != want {
			t.Fatalf("stalled follower GET %s: %d, want %d", path, code, want)
		}
	}
}

// fakeHandoffSource accepts one handoff stream on a loopback listener and
// answers the subscribe with the given frames.
func fakeHandoffSource(t *testing.T, frames ...[]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		if _, err := http.ReadRequest(br); err != nil {
			t.Errorf("fake source: reading upgrade: %v", err)
			return
		}
		bw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " + wire.StreamProtocol + "\r\nConnection: Upgrade\r\n\r\n")
		wire.WriteStreamFrame(bw, wire.EncodeStreamHello(wire.StreamHello{Credit: 1, MaxFrameBytes: 1 << 20}))
		bw.Flush()
		if _, err := wire.ReadStreamFrame(br, 4<<10); err != nil {
			t.Errorf("fake source: reading subscribe: %v", err)
			return
		}
		for _, f := range frames {
			wire.WriteStreamFrame(bw, f)
		}
		bw.Flush()
		io.Copy(io.Discard, br) // until the target hangs up
	}()
	return ln.Addr().String()
}

// TestHandoffTargetRefusesShortSnapshot: a handoff snapshot that delivers
// fewer pairs than its begin frame declared is refused, and the target never
// takes the slots, even though the source follows with a commit frame.
func TestHandoffTargetRefusesShortSnapshot(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, true)
	a, b := nodes["a"], nodes["b"]
	topo := fetchTopology(t, b.url())
	ids := usersOwnedBy(topo, "a", 1, 2)
	var slots keyspace.SlotSet
	for _, id := range ids {
		registerAndIngest(t, a.url(), id)
		slots.Add(keyspace.Partition(id))
	}
	pairs, snapLSN, err := a.spa.ExportSlotSnapshot(&slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) < 2 {
		t.Fatalf("exported %d pairs, want at least 2", len(pairs))
	}
	chunk := []wire.ReplEntry{{Key: pairs[0].Key, Value: pairs[0].Value}}
	addr := fakeHandoffSource(t,
		wire.EncodeReplSnapshotBegin(wire.ReplSnapshotBegin{SnapshotLSN: snapLSN, Pairs: uint64(len(pairs))}),
		wire.EncodeReplSnapshotChunk(chunk),
		wire.EncodeReplSnapshotEnd(snapLSN),
		wire.EncodeHandoffCommit(wire.HandoffCommit{LSN: snapLSN, Epoch: 9}))

	if err := b.srv.pullSlots(addr, &slots); err == nil {
		t.Fatal("target accepted a snapshot short of its declared pair count")
	}
	got := fetchTopology(t, b.url())
	if got.Epoch != 1 {
		t.Fatalf("target adopted epoch %d from a refused handoff", got.Epoch)
	}
	for _, slot := range slots.Slots() {
		if got.Slots[slot] != "a" {
			t.Fatalf("target took slot %d (owner %q) from a refused handoff", slot, got.Slots[slot])
		}
	}
}

// TestReplReaderSnapshotChecks: the snapshot reader hands over every chunk
// and refuses a snapshot whose pair count or end position differs from its
// begin frame.
func TestReplReaderSnapshotChecks(t *testing.T) {
	pair := func(k string) wire.ReplEntry { return wire.ReplEntry{Key: []byte(k), Value: []byte("v")} }
	for _, tc := range []struct {
		name    string
		pairs   uint64
		endLSN  uint64
		wantErr string
	}{
		{"complete", 3, 7, ""},
		{"short", 4, 7, "carried 3 pairs, begin declared 4"},
		{"end lsn", 3, 8, "end lsn 8, began at 7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prod, cons := net.Pipe()
			t.Cleanup(func() { prod.Close(); cons.Close() })
			go func() {
				bw := bufio.NewWriter(prod)
				for _, f := range [][]byte{
					wire.EncodeReplSnapshotChunk([]wire.ReplEntry{pair("a"), pair("b")}),
					wire.EncodeReplSnapshotChunk([]wire.ReplEntry{pair("c")}),
					wire.EncodeReplSnapshotEnd(tc.endLSN),
				} {
					wire.WriteStreamFrame(bw, f)
				}
				bw.Flush()
			}()
			rr := &replReader{conn: cons, br: bufio.NewReader(cons), maxFrame: 1 << 20, timeout: 5 * time.Second}
			var keys []string
			begin, err := rr.readSnapshot(wire.EncodeReplSnapshotBegin(wire.ReplSnapshotBegin{SnapshotLSN: 7, Pairs: tc.pairs}),
				func(chunk []store.LogEntry) error {
					for _, e := range chunk {
						keys = append(keys, string(e.Key))
					}
					return nil
				})
			if tc.wantErr == "" {
				if err != nil || begin.SnapshotLSN != 7 || len(keys) != 3 {
					t.Fatalf("begin %+v, keys %q, err %v", begin, keys, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}
