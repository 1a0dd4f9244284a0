package server

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/wire"
)

// trainServer fits a propensity model on the registered users — the wire
// API has no training endpoint (training is an offline batch job), so
// tests train through the core handle exactly as spabench [S8] does.
func trainServer(t *testing.T, spa *core.SPA, ids ...uint64) {
	t.Helper()
	var feats [][]float64
	var labels []bool
	for i, id := range ids {
		fv, err := spa.FeatureVector(id)
		if err != nil {
			t.Fatal(err)
		}
		feats = append(feats, fv)
		labels = append(labels, i%2 == 0)
	}
	if err := spa.TrainPropensity(feats, labels); err != nil {
		t.Fatal(err)
	}
}

// TestSelectTopPartialAnswers200WithSkipped: a ranking that had to skip
// unscorable profiles is still a ranking — the endpoint answers 200 with
// the skip count, not a whole-request error.
func TestSelectTopPartialAnswers200WithSkipped(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	for id := uint64(1); id <= 6; id++ {
		if err := spa.Register(id, []float64{float64(id), 1}); err != nil {
			t.Fatal(err)
		}
	}
	trainServer(t, spa, 1, 2, 3, 4, 5, 6)
	// Registered after training with a wider objective block: the fitted
	// scaler cannot transform it.
	if err := spa.Register(99, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	var resp wire.SelectTopResponse
	code, _ := doJSON(t, "GET", ts.URL+"/v1/select-top?k=10", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("select-top: %d", code)
	}
	if resp.Skipped != 1 {
		t.Fatalf("skipped %d, want 1", resp.Skipped)
	}
	if len(resp.UserIDs) != 6 {
		t.Fatalf("ranked %d users, want 6: %v", len(resp.UserIDs), resp.UserIDs)
	}
	for _, id := range resp.UserIDs {
		if id == 99 {
			t.Fatalf("unscorable user ranked: %v", resp.UserIDs)
		}
	}
}

// TestReadPathMetricsHygiene pins the read-path gauges across both
// exposition formats: a fresh server starts at epoch >= 1 with zeroed
// cache counters, the epoch rises monotonically with ingest, and the
// Prometheus series always agree with the JSON snapshot.
func TestReadPathMetricsHygiene(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := spa.Register(2, nil); err != nil {
		t.Fatal(err)
	}

	snapshot := func() wire.Metrics {
		var m wire.Metrics
		if code, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
			t.Fatalf("metrics: %d", code)
		}
		return m
	}
	crossCheck := func(m wire.Metrics) {
		t.Helper()
		fams, raw := fetchProm(t, ts.URL)
		get := func(series string) float64 {
			for _, f := range fams {
				if v, ok := f.Samples[series]; ok {
					return v
				}
			}
			t.Fatalf("series %s missing:\n%s", series, raw)
			return 0
		}
		checks := map[string]float64{
			"spad_snapshot_epoch":          float64(m.SnapshotEpoch),
			"spad_read_cache_hits_total":   float64(m.ReadCacheHits),
			"spad_read_cache_misses_total": float64(m.ReadCacheMisses),
			"spad_knn_rebuilds_total":      float64(m.KNNRebuilds),
		}
		for series, want := range checks {
			if got := get(series); got != want {
				t.Errorf("%s = %v in exposition, %v in JSON", series, got, want)
			}
		}
	}

	m0 := snapshot()
	// Registers publish snapshots, so the epoch is past its seed of 1; the
	// read caches must be untouched.
	if m0.SnapshotEpoch < 1 {
		t.Fatalf("fresh snapshot_epoch %d, want >= 1", m0.SnapshotEpoch)
	}
	if m0.ReadCacheHits != 0 || m0.ReadCacheMisses != 0 || m0.KNNRebuilds != 0 {
		t.Fatalf("fresh read counters not zero: %+v", m0)
	}
	crossCheck(m0)

	// Ingest interactions, then pull the same recommendation twice: the
	// epoch must rise, the first read misses, the second hits.
	evs := []lifelog.Event{
		{UserID: 1, Time: t0, Type: lifelog.EventClick, Action: 10},
		{UserID: 2, Time: t0, Type: lifelog.EventClick, Action: 10},
		{UserID: 2, Time: t0.Add(time.Minute), Type: lifelog.EventClick, Action: 20},
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(evs)}, nil); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	for i := 0; i < 2; i++ {
		var rec wire.RecommendResponse
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/users/1/recommendations?n=1", nil, &rec); code != http.StatusOK {
			t.Fatalf("recommend: %d", code)
		}
	}
	m1 := snapshot()
	if m1.SnapshotEpoch <= m0.SnapshotEpoch {
		t.Fatalf("epoch not monotone across ingest: %d -> %d", m0.SnapshotEpoch, m1.SnapshotEpoch)
	}
	// knn_rebuilds is retired: no model exists to rebuild.
	if m1.ReadCacheMisses != 1 || m1.ReadCacheHits != 1 || m1.KNNRebuilds != 0 {
		t.Fatalf("read counters after two pulls: %+v", m1)
	}
	crossCheck(m1)
}
