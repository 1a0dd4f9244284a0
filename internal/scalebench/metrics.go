package scalebench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The /metrics scrape behind spabench [S9]'s per-node ownership counts,
// and the format cross-check the CI smokes run (spabench -check-metrics).

// FetchMetrics scrapes a spad's JSON /metrics snapshot.
func FetchMetrics(baseURL string) (wire.Metrics, error) {
	var m wire.Metrics
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("scalebench: /metrics: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("scalebench: decoding /metrics: %w", err)
	}
	return m, nil
}

// CheckMetricsFormats scrapes a running spad's /metrics in both formats
// and cross-checks them: the JSON must decode, the Prometheus text
// exposition must parse under the strict parser (HELP/TYPE, cumulative
// le-sorted buckets, +Inf, _count consistency), at least one _bucket
// series must be present, and scrape-stable counters must agree between
// the two. The CI smoke fails the build on any violation.
func CheckMetricsFormats(baseURL string) error {
	m, err := FetchMetrics(baseURL)
	if err != nil {
		return err
	}
	req, err := http.NewRequest("GET", baseURL+"/metrics", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scalebench: prometheus /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		return fmt.Errorf("scalebench: prometheus /metrics content type %q, want %q", ct, obs.PromContentType)
	}
	fams, err := obs.ParseProm(strings.NewReader(string(raw)))
	if err != nil {
		return fmt.Errorf("scalebench: unparseable exposition: %w", err)
	}
	if !strings.Contains(string(raw), "_bucket{") {
		return fmt.Errorf("scalebench: exposition has no _bucket series")
	}
	series := func(name string) (float64, error) {
		for _, f := range fams {
			if v, ok := f.Samples[name]; ok {
				return v, nil
			}
		}
		return 0, fmt.Errorf("scalebench: series %s missing from exposition", name)
	}
	stable := map[string]float64{
		"spad_users":                   float64(m.Users),
		"spad_ingest_commits_total":    float64(m.IngestCommits),
		"spad_ingest_events_total":     float64(m.IngestEvents),
		"spad_ingest_requests_total":   float64(m.IngestRequests),
		"spad_snapshot_epoch":          float64(m.SnapshotEpoch),
		"spad_read_cache_hits_total":   float64(m.ReadCacheHits),
		"spad_knn_rebuilds_total":      float64(m.KNNRebuilds),
		"spad_read_cache_misses_total": float64(m.ReadCacheMisses),
		"spad_repl_applied_lsn":        float64(m.ReplAppliedLSN),
		// The cluster series render on every daemon (zeros outside cluster
		// mode), so their presence is part of the stable contract.
		"spad_cluster_epoch":         float64(m.ClusterEpoch),
		"spad_cluster_slots_owned":   float64(m.ClusterSlotsOwned),
		"spad_cluster_bounces_total": float64(m.ClusterBounces),
		"spad_slot_moves_total":      float64(m.SlotMoves),
	}
	if m.SnapshotEpoch < 1 {
		return fmt.Errorf("scalebench: snapshot_epoch %d, want >= 1 on a live core", m.SnapshotEpoch)
	}
	for name, want := range stable {
		got, err := series(name)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("scalebench: %s = %v in exposition but %v in JSON", name, got, want)
		}
	}
	return nil
}
