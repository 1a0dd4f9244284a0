package server

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/wire"
)

// clusterNode is one in-process cluster member with its advertised address
// known before the server started (the peer map needs every address up
// front, so the listener is bound first).
type clusterNode struct {
	id   string
	addr string
	dir  string // data and topology dir; "" when not durable
	ts   *httptest.Server
	spa  *core.SPA
	srv  *Server
}

func (n *clusterNode) url() string { return "http://" + n.addr }

// startCluster boots n nodes that all know each other's addresses. Each
// node gets its own durable core when durable is set; the shared simulated
// clock keeps profiles byte-comparable across nodes.
func startCluster(t *testing.T, ids []string, durable bool) map[string]*clusterNode {
	t.Helper()
	clk := clock.NewSimulated(t0.Add(24 * time.Hour))
	nodes := make(map[string]*clusterNode, len(ids))
	peers := make(map[string]string, len(ids))
	listeners := make(map[string]net.Listener, len(ids))
	for _, id := range ids {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[id] = l
		peers[id] = l.Addr().String()
	}
	for _, id := range ids {
		copts := core.Options{Shards: 4, Clock: clk}
		if durable {
			copts.DataDir = t.TempDir()
		}
		spa, err := core.New(copts)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(spa, Options{
			ClusterNodeID: id,
			ClusterAddr:   peers[id],
			ClusterPeers:  peers,
			ClusterDir:    copts.DataDir,
		})
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = listeners[id]
		ts.Start()
		nodes[id] = &clusterNode{id: id, addr: peers[id], dir: copts.DataDir, ts: ts, spa: spa, srv: srv}
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
			spa.Close()
		})
	}
	return nodes
}

func fetchTopology(t *testing.T, url string) wire.Topology {
	t.Helper()
	var topo wire.Topology
	if code, _ := doJSON(t, "GET", url+wire.TopologyPath, nil, &topo); code != http.StatusOK {
		t.Fatalf("topology: %d", code)
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("served topology invalid: %v", err)
	}
	return topo
}

// usersOwnedBy picks count user ids whose slots the given node owns under
// the topology, scanning upward from a base id.
func usersOwnedBy(topo wire.Topology, node string, base uint64, count int) []uint64 {
	var ids []uint64
	for id := base; len(ids) < count; id++ {
		if topo.Slots[keyspace.Partition(id)] == node {
			ids = append(ids, id)
		}
	}
	return ids
}

func registerAndIngest(t *testing.T, url string, id uint64) {
	t.Helper()
	if code, _ := doJSON(t, "POST", url+"/v1/users",
		wire.RegisterRequest{UserID: id, Objective: []float64{30, 1}}, nil); code != http.StatusCreated {
		t.Fatalf("register %d: %d", id, code)
	}
	ev := []lifelog.Event{
		{UserID: id, Time: t0, Type: lifelog.EventClick, Action: uint32(id % lifelog.ActionUniverse)},
		{UserID: id, Time: t0.Add(time.Second), Type: lifelog.EventEnroll, Action: uint32(id % lifelog.ActionUniverse)},
	}
	if code, _ := doJSON(t, "POST", url+"/v1/ingest",
		wire.IngestRequest{Events: wire.FromEvents(ev)}, nil); code != http.StatusOK {
		t.Fatalf("ingest %d: %d", id, code)
	}
}

func TestClusterTopologyAndOwnershipBounce(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, false)
	a, b := nodes["a"], nodes["b"]

	// Both nodes serve the same deterministic epoch-1 map, split evenly.
	topoA := fetchTopology(t, a.url())
	topoB := fetchTopology(t, b.url())
	if topoA.Epoch != 1 || topoB.Epoch != 1 {
		t.Fatalf("epochs %d/%d, want 1/1", topoA.Epoch, topoB.Epoch)
	}
	if topoA.NodeID != "a" || topoB.NodeID != "b" {
		t.Fatalf("node ids %q/%q", topoA.NodeID, topoB.NodeID)
	}
	counts := map[string]int{}
	for i, owner := range topoA.Slots {
		if owner != topoB.Slots[i] {
			t.Fatalf("slot %d: %q on a, %q on b", i, owner, topoB.Slots[i])
		}
		counts[owner]++
	}
	if counts["a"] != keyspace.NumSlots/2 || counts["b"] != keyspace.NumSlots/2 {
		t.Fatalf("slot split %v", counts)
	}

	aUser := usersOwnedBy(topoA, "a", 1, 1)[0]
	bUser := usersOwnedBy(topoA, "b", 1, 1)[0]

	// Owned writes and reads work on the owner.
	registerAndIngest(t, a.url(), aUser)
	if code, _ := doJSON(t, "GET", a.url()+"/v1/users/"+strconv.FormatUint(aUser, 10)+"/sensibilities", nil, nil); code != http.StatusOK {
		t.Fatalf("owned read: %d", code)
	}

	// Mis-owned writes and reads bounce 421 naming the owner.
	for _, probe := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/users", wire.RegisterRequest{UserID: bUser, Objective: []float64{30, 1}}},
		{"POST", "/v1/ingest", wire.IngestRequest{Events: wire.FromEvents([]lifelog.Event{
			{UserID: bUser, Time: t0, Type: lifelog.EventClick, Action: 1}})}},
		{"POST", "/v1/users/" + strconv.FormatUint(bUser, 10) + "/reward", wire.AttributesRequest{}},
		{"GET", "/v1/users/" + strconv.FormatUint(bUser, 10) + "/propensity", nil},
		{"GET", "/v1/users/" + strconv.FormatUint(bUser, 10) + "/recommendations", nil},
	} {
		code, hdr := doJSON(t, probe.method, a.url()+probe.path, probe.body, nil)
		if code != http.StatusMisdirectedRequest {
			t.Fatalf("%s %s: %d, want 421", probe.method, probe.path, code)
		}
		if got := hdr.Get("X-SPA-Owner"); got != b.addr {
			t.Fatalf("%s %s X-SPA-Owner %q, want %q", probe.method, probe.path, got, b.addr)
		}
		if got := hdr.Get("X-SPA-Epoch"); got != "1" {
			t.Fatalf("%s %s X-SPA-Epoch %q, want 1", probe.method, probe.path, got)
		}
	}

	// Status reports the cluster identity; metrics carry the bounce count
	// in both formats.
	st := replStatus(t, a.url())
	if st.NodeID != "a" || st.TopologyEpoch != 1 {
		t.Fatalf("status node %q epoch %d", st.NodeID, st.TopologyEpoch)
	}
	var m wire.Metrics
	if code, _ := doJSON(t, "GET", a.url()+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.ClusterEpoch != 1 || m.ClusterSlotsOwned != keyspace.NumSlots/2 || m.ClusterBounces == 0 {
		t.Fatalf("cluster metrics: epoch %d owned %d bounces %d", m.ClusterEpoch, m.ClusterSlotsOwned, m.ClusterBounces)
	}
	_, promText := fetchProm(t, a.url())
	for _, series := range []string{"spad_cluster_epoch", "spad_cluster_slots_owned", "spad_cluster_bounces_total", "spad_slot_moves_total"} {
		if !strings.Contains(promText, series) {
			t.Fatalf("prometheus exposition missing %s", series)
		}
	}
}

// TestClusterMetricsRenderZeroOutsideClusterMode pins the satellite
// contract: the cluster series exist — as zeros — on standalone daemons,
// so the stable metric key set is deployment-independent.
func TestClusterMetricsRenderZeroOutsideClusterMode(t *testing.T) {
	ts, _ := testServer(t, core.Options{Shards: 2}, Options{})
	var m wire.Metrics
	if code, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.ClusterEpoch != 0 || m.ClusterSlotsOwned != 0 || m.ClusterBounces != 0 || m.SlotMoves != 0 {
		t.Fatalf("standalone cluster metrics nonzero: %+v", m)
	}
	if code, _ := doJSON(t, "GET", ts.URL+wire.TopologyPath, nil, nil); code != http.StatusNotImplemented {
		t.Fatalf("topology on standalone: %d, want 501", code)
	}
}

func TestClusterHandoffMovesSlotsOverHTTP(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, true)
	a, b := nodes["a"], nodes["b"]
	topo := fetchTopology(t, a.url())

	aUsers := usersOwnedBy(topo, "a", 1, 8)
	bUsers := usersOwnedBy(topo, "b", 1, 8)
	for _, id := range aUsers {
		registerAndIngest(t, a.url(), id)
	}
	for _, id := range bUsers {
		registerAndIngest(t, b.url(), id)
	}

	// Capture what the owner serves before the move; the target must serve
	// it byte-identically after.
	before := make(map[uint64]string, len(aUsers))
	for _, id := range aUsers {
		before[id] = getBody(t, a.url()+"/v1/users/"+strconv.FormatUint(id, 10)+"/sensibilities")
	}

	// The target pulls every slot node a owns.
	var resp wire.HandoffResponse
	if code, _ := doJSON(t, "POST", b.url()+wire.HandoffPath,
		wire.HandoffRequest{FromNode: "a"}, &resp); code != http.StatusOK {
		t.Fatalf("handoff: %d", code)
	}
	if resp.Moved != keyspace.NumSlots/2 || resp.Epoch != 2 {
		t.Fatalf("handoff response %+v, want 128 moved at epoch 2", resp)
	}

	// Both nodes now serve the epoch-2 map with b owning everything.
	for _, n := range []*clusterNode{a, b} {
		got := fetchTopology(t, n.url())
		if got.Epoch != 2 {
			t.Fatalf("node %s epoch %d after handoff", n.id, got.Epoch)
		}
		for slot, owner := range got.Slots {
			if owner != "b" {
				t.Fatalf("node %s: slot %d still owned by %q", n.id, slot, owner)
			}
		}
	}

	// Moved users read identically from the new owner; the old owner
	// bounces them to b.
	for _, id := range aUsers {
		path := "/v1/users/" + strconv.FormatUint(id, 10) + "/sensibilities"
		if got := getBody(t, b.url()+path); got != before[id] {
			t.Fatalf("user %d diverged after handoff:\nbefore %s\nafter  %s", id, before[id], got)
		}
		code, hdr := doJSON(t, "GET", a.url()+path, nil, nil)
		if code != http.StatusMisdirectedRequest {
			t.Fatalf("moved user %d on a: %d, want 421", id, code)
		}
		if got := hdr.Get("X-SPA-Owner"); got != b.addr {
			t.Fatalf("moved user %d X-SPA-Owner %q", id, got)
		}
	}

	// The new owner accepts writes for moved users.
	if code, _ := doJSON(t, "POST", b.url()+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents([]lifelog.Event{
		{UserID: aUsers[0], Time: t0.Add(time.Minute), Type: lifelog.EventClick, Action: 2}})}, nil); code != http.StatusOK {
		t.Fatalf("post-handoff ingest on b: %d", code)
	}

	// slot_moves counted on both sides; the source dropped the moved users.
	var ma, mb wire.Metrics
	doJSON(t, "GET", a.url()+"/metrics", nil, &ma)
	doJSON(t, "GET", b.url()+"/metrics", nil, &mb)
	if ma.SlotMoves == 0 || mb.SlotMoves == 0 {
		t.Fatalf("slot_moves a=%d b=%d, want both > 0", ma.SlotMoves, mb.SlotMoves)
	}
	if ma.ClusterSlotsOwned != 0 || mb.ClusterSlotsOwned != keyspace.NumSlots {
		t.Fatalf("slots owned a=%d b=%d", ma.ClusterSlotsOwned, mb.ClusterSlotsOwned)
	}
	if got := a.spa.Users(); got != 0 {
		t.Fatalf("source still models %d users after full handoff", got)
	}
}

// TestClusterHandoffSourceRestartDropsMovedUsers: core.New reloads every
// durable profile, so a handoff source restarted on its data dir must drop
// the users of the slots it handed away — whether its persisted map says so
// at start or a gossiped map reveals it later — or its node-local reads
// (Users, SelectTop) keep counting them.
func TestClusterHandoffSourceRestartDropsMovedUsers(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, true)
	a, b := nodes["a"], nodes["b"]
	moved := usersOwnedBy(fetchTopology(t, a.url()), "a", 1, 8)
	for _, id := range moved {
		registerAndIngest(t, a.url(), id)
	}
	if code, _ := doJSON(t, "POST", b.url()+wire.HandoffPath,
		wire.HandoffRequest{FromNode: "a"}, nil); code != http.StatusOK {
		t.Fatalf("handoff: %d", code)
	}
	// The moved users' features, from their new owner, train the model each
	// restarted source ranks with.
	var feats [][]float64
	var labels []bool
	for i, id := range moved {
		fv, err := b.spa.FeatureVector(id)
		if err != nil {
			t.Fatal(err)
		}
		feats = append(feats, fv)
		labels = append(labels, i%2 == 0)
	}
	a.ts.Close()
	a.srv.Close()
	a.spa.Close()

	restart := func(t *testing.T) (*core.SPA, *Server) {
		t.Helper()
		spa, err := core.New(core.Options{DataDir: a.dir, Shards: 4, Clock: clock.NewSimulated(t0.Add(24 * time.Hour))})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(spa, Options{
			ClusterNodeID: "a",
			ClusterAddr:   a.addr,
			ClusterPeers:  map[string]string{"a": a.addr, "b": b.addr},
			ClusterDir:    a.dir,
		})
		t.Cleanup(func() {
			srv.Close()
			spa.Close()
		})
		return spa, srv
	}
	assertDropped := func(t *testing.T, spa *core.SPA) {
		t.Helper()
		if got := spa.Users(); got != 0 {
			t.Fatalf("restarted source models %d users, want 0", got)
		}
		if err := spa.TrainPropensity(feats, labels); err != nil {
			t.Fatal(err)
		}
		top, err := spa.SelectTop(len(moved))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range moved {
			if slices.Contains(top, id) {
				t.Fatalf("restarted source ranks moved user %d: %v", id, top)
			}
		}
	}

	t.Run("persisted", func(t *testing.T) {
		spa, _ := restart(t)
		assertDropped(t, spa)
	})
	t.Run("gossiped", func(t *testing.T) {
		// Without its persisted map the source starts from the epoch-1
		// default, which still gives it the moved slots; adopting the
		// owner's map takes them away.
		if err := os.Remove(filepath.Join(a.dir, topologyFile)); err != nil {
			t.Fatal(err)
		}
		spa, srv := restart(t)
		if got := spa.Users(); got != len(moved) {
			t.Fatalf("source on the default map models %d users, want %d", got, len(moved))
		}
		srv.cluster.adopt(fetchTopology(t, b.url()))
		assertDropped(t, spa)
	})
}

// TestClusterMultiOwnerHandoffEpochsChain pins the epoch-coordination fix:
// a target pulling from two owners back-to-back (faster than gossip can
// spread the first flip) must see strictly increasing epochs, because each
// source adopts the target's map before minting. Without the sync both
// sources mint the same epoch with conflicting maps — gossip (higher-epoch
// only) never reconciles them, and slots already moved can be gossiped
// back to a node that has dropped their users.
func TestClusterMultiOwnerHandoffEpochsChain(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b", "c"}, true)
	a, b, c := nodes["a"], nodes["b"], nodes["c"]
	topo := fetchTopology(t, c.url())

	// Seed a user on each source so the moved slots carry state.
	aUser := usersOwnedBy(topo, "a", 1, 1)[0]
	bUser := usersOwnedBy(topo, "b", 1, 1)[0]
	registerAndIngest(t, a.url(), aUser)
	registerAndIngest(t, b.url(), bUser)
	beforeA := getBody(t, a.url()+"/v1/users/"+strconv.FormatUint(aUser, 10)+"/sensibilities")
	beforeB := getBody(t, b.url()+"/v1/users/"+strconv.FormatUint(bUser, 10)+"/sensibilities")

	// One handoff request naming every slot: c pulls a's group, then b's,
	// sequentially on the same POST — two flips, two distinct epochs.
	all := make([]int, keyspace.NumSlots)
	for i := range all {
		all[i] = i
	}
	var resp wire.HandoffResponse
	if code, _ := doJSON(t, "POST", c.url()+wire.HandoffPath,
		wire.HandoffRequest{Slots: all}, &resp); code != http.StatusOK {
		t.Fatalf("handoff: %d", code)
	}
	wantMoved := 0
	for _, owner := range topo.Slots {
		if owner != "c" {
			wantMoved++
		}
	}
	if resp.Moved != wantMoved || resp.Epoch != 3 {
		t.Fatalf("handoff response %+v, want %d moved at epoch 3 (2 would mean a collision)", resp, wantMoved)
	}

	// The second source and the target hold the chained map immediately;
	// the first source converges by gossip — it must end on epoch 3 with
	// nothing assigned back to itself.
	for _, n := range []*clusterNode{b, c} {
		got := fetchTopology(t, n.url())
		if got.Epoch != 3 {
			t.Fatalf("node %s epoch %d after chained handoff, want 3", n.id, got.Epoch)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := fetchTopology(t, a.url())
		if got.Epoch == 3 {
			for slot, owner := range got.Slots {
				if owner != "c" {
					t.Fatalf("node a at epoch 3 still routes slot %d to %q", slot, owner)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node a stuck at epoch %d, gossip never delivered the chained map", got.Epoch)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Both moved users stay reachable on the new owner, byte-identical.
	if got := getBody(t, c.url()+"/v1/users/"+strconv.FormatUint(aUser, 10)+"/sensibilities"); got != beforeA {
		t.Fatalf("user %d diverged after chained handoff", aUser)
	}
	if got := getBody(t, c.url()+"/v1/users/"+strconv.FormatUint(bUser, 10)+"/sensibilities"); got != beforeB {
		t.Fatalf("user %d diverged after chained handoff", bUser)
	}
}

// getBody fetches a URL and returns its body, failing on non-200.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

// TestClusterHandoffTargetRetriesIncomingSlots: while a node pulls slots it
// does not own yet, it answers 503 + Retry-After for them — reads, writes
// and stream frames alike — instead of bouncing back to the old owner, which
// may already have flipped and be bouncing the same clients here. Once the
// pull is over the slots bounce (or serve) as ownership says.
func TestClusterHandoffTargetRetriesIncomingSlots(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, false)
	a, b := nodes["a"], nodes["b"]
	topo := fetchTopology(t, a.url())
	id := usersOwnedBy(topo, "a", 1, 1)[0]
	var slots keyspace.SlotSet
	slots.Add(keyspace.Partition(id))

	answers := func() (read, write int, stream []byte) {
		resp, err := http.Get(b.url() + "/v1/users/" + strconv.FormatUint(id, 10) + "/sensibilities")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		write, _ = doJSON(t, "POST", b.url()+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(
			[]lifelog.Event{{UserID: id, Time: t0, Type: lifelog.EventClick, Action: 1}})}, nil)
		release, refuse := b.srv.admitStreamWrite([]lifelog.Event{{UserID: id}})
		if release != nil {
			release()
		}
		return resp.StatusCode, write, refuse
	}

	b.srv.cluster.markIncoming(&slots, 1)
	read, write, refuse := answers()
	if read != http.StatusServiceUnavailable || write != http.StatusServiceUnavailable {
		t.Fatalf("pulling: read %d, write %d, want 503 for both", read, write)
	}
	if se, err := wire.DecodeStreamError(refuse); err != nil || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("pulling: stream refusal %+v (%v), want 503", se, err)
	}

	b.srv.cluster.markIncoming(&slots, -1)
	read, write, refuse = answers()
	if read != http.StatusMisdirectedRequest || write != http.StatusMisdirectedRequest {
		t.Fatalf("after the pull: read %d, write %d, want 421 for both", read, write)
	}
	if se, err := wire.DecodeStreamError(refuse); err != nil || se.Status != http.StatusMisdirectedRequest {
		t.Fatalf("after the pull: stream refusal %+v (%v), want 421", se, err)
	}
}
