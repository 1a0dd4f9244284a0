package scalebench

import (
	"net/http/httptest"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/spaclient"
)

func TestS7Smoke(t *testing.T) {
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

	const users = 64
	c := spaclient.New(ts.URL, spaclient.Options{})
	if err := registerPopulation([]*spaclient.Client{c}, users); err != nil {
		t.Fatal(err)
	}
	// Train the propensity model in-process so the select-top / propensity
	// reads in the mix are warm, as the spabench [S8] section does.
	var feats [][]float64
	var labels []bool
	for id := uint64(1); id <= users; id++ {
		fv, err := spa.FeatureVector(id)
		if err != nil {
			t.Fatal(err)
		}
		feats = append(feats, fv)
		labels = append(labels, id%2 == 0)
	}
	if err := spa.TrainPropensity(feats, labels); err != nil {
		t.Fatal(err)
	}

	res, err := RunMixed(MixedConfig{
		BaseURL: ts.URL,
		Seed:    13,
		Users:   users,
		Clients: 4,
		Ops:     120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("mixed run errors: %+v", res)
	}
	if res.Ops != 120 {
		t.Fatalf("ops %d, want 120", res.Ops)
	}
	if res.ReadOps == 0 || res.WriteOps == 0 || res.Events == 0 {
		t.Fatalf("one side of the mix did not run: %+v", res)
	}
	// 90/10 with seed 13 over 120 ops: reads must dominate.
	if res.ReadOps <= res.WriteOps*4 {
		t.Fatalf("mix not read-heavy: %d reads vs %d writes", res.ReadOps, res.WriteOps)
	}
	if res.ReadP50 <= 0 || res.ReadP99 < res.ReadP50 || res.WriteP50 <= 0 || res.WriteP99 < res.WriteP50 {
		t.Fatalf("degenerate latency measurements: %+v", res)
	}
	if res.ReadOpsPerSec <= 0 || res.WriteEventsPerSec <= 0 {
		t.Fatalf("degenerate throughput: %+v", res)
	}

	// The run must have exercised the snapshot read path: writes publish
	// epochs, recommendation pulls hit the per-shard cache counters.
	rs := spa.ReadStats()
	if rs.SnapshotEpoch < 2 {
		t.Fatalf("snapshot epoch %d, want >= 2 after mixed writes", rs.SnapshotEpoch)
	}
	if rs.ReadCacheHits+rs.ReadCacheMisses == 0 {
		t.Fatalf("recommend cache never touched: %+v", rs)
	}
}
