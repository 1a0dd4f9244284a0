package scalebench

import (
	"net"
	"net/http/httptest"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/server"
)

// TestS6Smoke runs a miniature of [S9]'s single-node baseline: the zipf +
// diurnal mixed-endpoint scenario replay against one live stack.
// Both the write side and the read side must deliver without errors, and
// the replay must actually be skewed and actually mixed.
func TestS6Smoke(t *testing.T) {
	spa, err := core.New(core.Options{Shards: 4, Clock: clock.NewSimulated(clock.Epoch)})
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

	res, err := RunScenario(ScenarioConfig{
		BaseURL:  ts.URL,
		Seed:     11,
		Users:    64,
		Clients:  4,
		Sessions: 64,
		Register: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("scenario errors: %+v", res)
	}
	if res.Sessions != 64 {
		t.Fatalf("sessions %d, want 64", res.Sessions)
	}
	if res.Events == 0 || res.WriteOps < res.Sessions {
		t.Fatalf("write side did not run: %+v", res)
	}
	if res.ReadOps == 0 {
		t.Fatalf("read side did not run: %+v", res)
	}
	if res.WriteP50 <= 0 || res.WriteP99 < res.WriteP50 || res.ReadP50 <= 0 || res.ReadP99 < res.ReadP50 {
		t.Fatalf("degenerate latency measurements: %+v", res)
	}
	if res.WriteEventsPerSec <= 0 || res.ReadOpsPerSec <= 0 {
		t.Fatalf("degenerate throughput: %+v", res)
	}
	// Zipf skew must be visible: the hottest 1% (here: 1 of 64 users) owns
	// well more than a uniform 1/64 share of sessions.
	if res.Top1PctShare < 2.0/64 {
		t.Fatalf("replay not skewed: top-1%% share %.3f", res.Top1PctShare)
	}
}

// TestScenarioClusterSmoke replays the scenario against a 2-node cluster
// through the multi-endpoint + topology-routing path the [S9] section
// uses: every session must land without errors (no unretried 421s), and
// the population must actually split across both nodes.
func TestScenarioClusterSmoke(t *testing.T) {
	ids := []string{"a", "b"}
	peers := make(map[string]string, len(ids))
	listeners := make(map[string]net.Listener, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[id] = ln
		peers[id] = ln.Addr().String()
	}
	spas := make(map[string]*core.SPA, len(ids))
	var endpoints []string
	for _, id := range ids {
		spa, err := core.New(core.Options{Shards: 4, Clock: clock.NewSimulated(clock.Epoch)})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(spa, server.Options{
			ClusterNodeID: id,
			ClusterAddr:   peers[id],
			ClusterPeers:  peers,
		})
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = listeners[id]
		ts.Start()
		defer func() {
			ts.Close()
			srv.Close()
			spa.Close()
		}()
		spas[id] = spa
		endpoints = append(endpoints, "http://"+peers[id])
	}

	res, err := RunScenario(ScenarioConfig{
		Endpoints: endpoints,
		Cluster:   true,
		Seed:      11,
		Users:     64,
		Clients:   4,
		Sessions:  64,
		Register:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("cluster scenario errors: %+v", res)
	}
	if res.Events == 0 || res.ReadOps == 0 {
		t.Fatalf("replay did not exercise both paths: %+v", res)
	}
	na, nb := spas["a"].Users(), spas["b"].Users()
	if na+nb != 64 || na == 0 || nb == 0 {
		t.Fatalf("population split %d/%d, want all 64 users spread across both nodes", na, nb)
	}
}

// TestScenarioPlansDeterministic pins that a seed fully determines the
// replay content — the repro contract behind the seed [S9] prints.
func TestScenarioPlansDeterministic(t *testing.T) {
	cfg := ScenarioConfig{Seed: 7, Users: 32, Sessions: 40, ZipfS: 1.07}
	popA, err := synthPop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	popB, _ := synthPop(cfg)
	plansA, shareA := buildSessionPlans(cfg, popA)
	plansB, shareB := buildSessionPlans(cfg, popB)
	if shareA != shareB || len(plansA) != len(plansB) {
		t.Fatalf("plan shape diverged: %f/%d vs %f/%d", shareA, len(plansA), shareB, len(plansB))
	}
	for i := range plansA {
		a, b := plansA[i], plansB[i]
		if a.user != b.user || a.recommend != b.recommend || a.question != b.question ||
			a.reward != b.reward || a.attr != b.attr || len(a.actions) != len(b.actions) {
			t.Fatalf("session %d diverged: %+v vs %+v", i, a, b)
		}
		for k := range a.actions {
			if a.actions[k] != b.actions[k] || a.types[k] != b.types[k] {
				t.Fatalf("session %d event %d diverged", i, k)
			}
		}
	}
}
