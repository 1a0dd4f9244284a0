package spaclient

// Cluster-routing tests against fake nodes: topology-split ingest, the
// single-hop 421 bounce retry, and the refresh-after-bounce behaviour.
// Real multi-node coverage (actual spad servers, handoffs under load)
// lives in internal/server and the scalebench [S9] section; these tests
// pin the client-side contract with handlers that misbehave on purpose.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/wire"
)

// hostOf strips the scheme from an httptest URL: topology maps and bounce
// headers carry host:port, exactly as the server side publishes them.
func hostOf(ts *httptest.Server) string {
	return strings.TrimPrefix(ts.URL, "http://")
}

// evenOddTopology owns even slots with node a, odd slots with node b.
func evenOddTopology(aHost, bHost string, epoch uint64) wire.Topology {
	topo := wire.Topology{
		Epoch:  epoch,
		NodeID: "a",
		Nodes:  map[string]string{"a": aHost, "b": bHost},
		Slots:  make([]string, keyspace.NumSlots),
	}
	for i := range topo.Slots {
		if i%2 == 0 {
			topo.Slots[i] = "a"
		} else {
			topo.Slots[i] = "b"
		}
	}
	return topo
}

// uniformTopology owns every slot with one node.
func uniformTopology(owner string, nodes map[string]string, epoch uint64) wire.Topology {
	topo := wire.Topology{Epoch: epoch, NodeID: owner, Nodes: nodes,
		Slots: make([]string, keyspace.NumSlots)}
	for i := range topo.Slots {
		topo.Slots[i] = owner
	}
	return topo
}

func TestClusterIngestSplitsByOwner(t *testing.T) {
	var mu sync.Mutex
	got := map[string][]uint64{} // node → user IDs received, in arrival order
	reqs := map[string]int{}

	ingestHandler := func(node string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			raw, err := io.ReadAll(r.Body)
			if err != nil || !wire.IsBinaryContentType(r.Header.Get("Content-Type")) {
				http.Error(w, "want an SPAB ingest body", http.StatusBadRequest)
				return
			}
			events, err := wire.DecodeIngestRequest(raw)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			reqs[node]++
			for _, e := range events {
				got[node] = append(got[node], e.UserID)
			}
			mu.Unlock()
			w.Header().Set("Content-Type", wire.ContentTypeBinary)
			w.Write(wire.EncodeIngestResponse(wire.IngestResponse{Processed: len(events), CoalescedWith: 1}))
		}
	}

	muxA, muxB := http.NewServeMux(), http.NewServeMux()
	muxA.HandleFunc("POST /v1/ingest", ingestHandler("a"))
	muxB.HandleFunc("POST /v1/ingest", ingestHandler("b"))
	a := httptest.NewServer(muxA)
	defer a.Close()
	b := httptest.NewServer(muxB)
	defer b.Close()
	topo := evenOddTopology(hostOf(a), hostOf(b), 1)
	muxA.HandleFunc("GET "+wire.TopologyPath, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(topo)
	})

	c := New(a.URL, Options{Cluster: true})
	var events []lifelog.Event
	want := map[string][]uint64{}
	for id := uint64(1); id <= 16; id++ {
		events = append(events, lifelog.Event{UserID: id, Type: lifelog.EventPageView})
		node := topo.Slots[keyspace.Partition(id)]
		want[node] = append(want[node], id)
	}
	if len(want["a"]) == 0 || len(want["b"]) == 0 {
		t.Fatalf("test users all partition to one parity: %v", want)
	}

	resp, err := c.Ingest(events)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if resp.Processed != len(events) || resp.SkippedUnknown != 0 {
		t.Fatalf("aggregate response %+v, want processed=%d", resp, len(events))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, node := range []string{"a", "b"} {
		if reqs[node] != 1 {
			t.Fatalf("node %s received %d ingest requests, want 1 (batch per owner)", node, reqs[node])
		}
		if len(got[node]) != len(want[node]) {
			t.Fatalf("node %s received users %v, want %v", node, got[node], want[node])
		}
		for i, id := range want[node] {
			if got[node][i] != id {
				t.Fatalf("node %s received users %v, want %v (order preserved)", node, got[node], want[node])
			}
		}
	}
}

func TestClusterBounceRetriesOnceAndRefreshes(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{} // "a:reward", "b:punish", ...
	var topo wire.Topology     // what node a's /v1/topology serves right now
	var aHost, bHost string
	bouncePunishFromB := false

	bounce := func(w http.ResponseWriter, owner string) {
		w.Header().Set(wire.OwnerHeader, owner)
		w.Header().Set(wire.EpochHeader, "1")
		w.WriteHeader(http.StatusMisdirectedRequest)
		json.NewEncoder(w).Encode(wire.Error{Message: "not the owner"})
	}
	leaf := func(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

	muxA, muxB := http.NewServeMux(), http.NewServeMux()
	muxA.HandleFunc("POST /v1/users/", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		counts["a:"+leaf(r.URL.Path)]++
		mu.Unlock()
		bounce(w, bHost) // node a owns nothing, whatever its map claims
	})
	muxB.HandleFunc("POST /v1/users/", func(w http.ResponseWriter, r *http.Request) {
		op := leaf(r.URL.Path)
		mu.Lock()
		counts["b:"+op]++
		back := bouncePunishFromB && op == "punish"
		mu.Unlock()
		if back {
			bounce(w, aHost)
			return
		}
		w.Write([]byte("{}"))
	})
	a := httptest.NewServer(muxA)
	defer a.Close()
	b := httptest.NewServer(muxB)
	defer b.Close()
	aHost, bHost = hostOf(a), hostOf(b)
	nodes := map[string]string{"a": aHost, "b": bHost}
	topo = uniformTopology("a", nodes, 1) // stale: claims a owns everything
	muxA.HandleFunc("GET "+wire.TopologyPath, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		cur := topo
		mu.Unlock()
		counts["topology"]++
		json.NewEncoder(w).Encode(cur)
	})

	c := New(a.URL, Options{Cluster: true})
	const user = 42

	// Phase 1: the stale map routes to a, a bounces naming b, and the
	// client retries exactly once against b — success, one hop.
	if err := c.Reward(user, []string{"x"}); err != nil {
		t.Fatalf("bounced reward should succeed on the retry: %v", err)
	}
	mu.Lock()
	if counts["a:reward"] != 1 || counts["b:reward"] != 1 {
		t.Fatalf("bounce hop counts %v, want a:reward=1 b:reward=1", counts)
	}
	// Phase 2: the bounce invalidated the cache; publish the corrected
	// map and the next write goes straight to b without touching a.
	topo = uniformTopology("b", nodes, 2)
	mu.Unlock()
	if err := c.Reward(user, []string{"x"}); err != nil {
		t.Fatalf("rerouted reward: %v", err)
	}
	mu.Lock()
	if counts["a:reward"] != 1 || counts["b:reward"] != 2 {
		t.Fatalf("post-refresh counts %v, want a:reward=1 b:reward=2", counts)
	}
	// Phase 3: both nodes bounce at each other. The retry is never itself
	// retried, so the client makes exactly two requests and surfaces the
	// second 421 — no ping-pong loop.
	bouncePunishFromB = true
	mu.Unlock()
	err := c.Punish(user, []string{"x"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusMisdirectedRequest {
		t.Fatalf("mutual bounce should surface the second 421, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts["b:punish"] != 1 || counts["a:punish"] != 1 {
		t.Fatalf("mutual bounce made %v punish requests, want exactly one hop each", counts)
	}
}
