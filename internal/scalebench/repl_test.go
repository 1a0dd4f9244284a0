package scalebench

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/server"
	"repro/internal/spaclient"
)

// TestS8Smoke is the harness check for the [S8] replicated-read section:
// a durable leader plus one streaming follower, with the mixed workload's
// clients routing reads across both nodes. It asserts the plumbing — the
// follower actually takes a share of the reads, the lag sampler observes a
// real distribution, and the run finishes clean — not the throughput
// scaling, which needs real cores and belongs to spabench.
func TestS8Smoke(t *testing.T) {
	clk := clock.NewSimulated(clock.Epoch)
	spa, err := core.New(core.Options{DataDir: t.TempDir(), Shards: 4, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(spa, server.Options{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
		spa.Close()
	}()

	// Follower boots before traffic so the CF interaction stream reaches it
	// live (interaction counts travel only in wave annotations).
	fspa, err := core.New(core.Options{DataDir: t.TempDir(), Shards: 4, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := server.New(fspa, server.Options{FollowerOf: ts.URL})
	// Count the reads the routing layer actually lands on the follower —
	// its status polls and the lag sampler don't count — and the ones it
	// failed.
	var followerReads, followerFailed atomic.Int64
	fts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet ||
			r.URL.Path == "/v1/replication/status" || r.URL.Path == "/metrics" {
			fsrv.ServeHTTP(w, r)
			return
		}
		followerReads.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fsrv.ServeHTTP(sw, r)
		if sw.code >= 300 {
			followerFailed.Add(1)
		}
	}))
	defer func() {
		fts.Close()
		fsrv.Close()
		fspa.Close()
	}()

	const users = 64
	c := spaclient.New(ts.URL, spaclient.Options{})
	if err := registerPopulation([]*spaclient.Client{c}, users); err != nil {
		t.Fatal(err)
	}
	// One interaction per user before the run, so no read is cold: the
	// client drops a follower whose read failed (a cold user's 409 counts)
	// from routing until its next status poll, a second away, which made
	// the follower's share depend on which reads ran cold first.
	seed := make([]lifelog.Event, 0, users)
	for id := uint64(1); id <= users; id++ {
		seed = append(seed, lifelog.Event{UserID: id, Time: clock.Epoch, Type: lifelog.EventClick,
			Action: uint32(id % lifelog.ActionUniverse)})
	}
	if _, err := c.Ingest(seed); err != nil {
		t.Fatal(err)
	}

	// Wait for the follower to stream through the registrations before
	// measuring, then train the propensity model on both cores (it ships
	// out-of-band, not through the log).
	lst, err := c.ReplicationStatus()
	if err != nil {
		t.Fatal(err)
	}
	fc := spaclient.New(fts.URL, spaclient.Options{})
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := fc.ReplicationStatus()
		if err == nil && st.State == "streaming" && st.AppliedLSN >= lst.AppliedLSN {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up to lsn %d (last %+v, err %v)", lst.AppliedLSN, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, node := range []*core.SPA{spa, fspa} {
		var feats [][]float64
		var labels []bool
		for id := uint64(1); id <= users; id++ {
			fv, err := node.FeatureVector(id)
			if err != nil {
				t.Fatal(err)
			}
			feats = append(feats, fv)
			labels = append(labels, id%2 == 0)
		}
		if err := node.TrainPropensity(feats, labels); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	staleCh := make(chan Staleness, 1)
	go func() {
		staleCh <- SampleFollowerLag(fts.URL, 2*time.Millisecond, stop)
	}()
	res, err := RunMixed(MixedConfig{
		BaseURL:           ts.URL,
		Seed:              13,
		Users:             users,
		Clients:           4,
		Ops:               160,
		ReadFrom:          []string{fts.URL},
		MaxStalenessWaves: 1 << 20, // plumbing under test, not the bound
	})
	close(stop)
	stale := <-staleCh
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("mixed run errors: %+v", res)
	}
	if res.Ops != 160 || res.ReadOps == 0 || res.WriteOps == 0 {
		t.Fatalf("degenerate mix: %+v", res)
	}
	// Round-robin over a two-node pool: a follower that fails no read is
	// never skipped, so it takes every other read of each lane.
	if n := followerFailed.Load(); n != 0 {
		t.Fatalf("follower failed %d of the reads routed to it", n)
	}
	if got := followerReads.Load(); got < int64(res.ReadOps/4) {
		t.Fatalf("follower served %d of %d reads, want at least a quarter", got, res.ReadOps)
	}
	if stale.Samples == 0 {
		t.Fatal("lag sampler observed nothing during the run")
	}
	if stale.Max < stale.P95 || stale.P95 < stale.P50 {
		t.Fatalf("staleness distribution out of order: %+v", stale)
	}

	// The follower kept pace: after the run it converges again and its
	// served reads came from replicated state, not forwarding (it answers
	// even with the leader gone — the e2e smoke proves that half; here the
	// routed reads above already never touched the leader's handler).
	lst, err = c.ReplicationStatus()
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		st, err := fc.ReplicationStatus()
		if err == nil && st.AppliedLSN >= lst.AppliedLSN {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never re-converged to lsn %d", lst.AppliedLSN)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// statusWriter records the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
