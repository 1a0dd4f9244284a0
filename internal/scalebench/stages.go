package scalebench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Stage-breakdown support for spabench -stages: scrape a running spad's
// /metrics snapshot and reduce its per-stage latency histograms to the
// table the report prints, plus the /metrics format cross-check the CI
// smoke runs (-check-metrics).

// StageOrder is the pipeline-order key set of wire.Metrics.Stages.
// repl_apply is the follower-side stage (applying one run of shipped waves
// — every wave already buffered on the wire — through the core as one
// group); it has observations only on a node running with -follow.
var StageOrder = []string{"decode", "queue", "gather", "prepare", "commit", "wal_sync", "compaction", "repl_apply"}

// summedStages are the stages a request actually traverses start-to-finish;
// their medians should add up to roughly the end-to-end p50. wal_sync is a
// slice of commit and compaction is background work, so neither is summed.
var summedStages = []string{"decode", "queue", "gather", "prepare", "commit"}

// StageStat is one stage's latency summary.
type StageStat struct {
	Name  string        `json:"name"`
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

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

// StageBreakdown reduces the snapshot's stage histograms to per-stage
// summaries in pipeline order, skipping stages with no observations.
func StageBreakdown(m wire.Metrics) []StageStat {
	out := make([]StageStat, 0, len(StageOrder))
	for _, name := range StageOrder {
		h, ok := m.Stages[name]
		if !ok || h.Count == 0 {
			continue
		}
		st := StageStat{
			Name:  name,
			Count: h.Count,
			Mean:  time.Duration(h.SumNanos / h.Count),
			P50:   obs.QuantileFromCounts(h.Counts, 0.50),
			P95:   obs.QuantileFromCounts(h.Counts, 0.95),
			P99:   obs.QuantileFromCounts(h.Counts, 0.99),
		}
		out = append(out, st)
	}
	return out
}

// SumStageP50 adds the medians of the stages a request traverses
// end-to-end (decode, queue, gather, prepare, commit) — the number to hold
// against the loadgen's e2e p50, within the histogram's bucket error.
func SumStageP50(stats []StageStat) time.Duration {
	var sum time.Duration
	for _, st := range stats {
		for _, name := range summedStages {
			if st.Name == name {
				sum += st.P50
				break
			}
		}
	}
	return sum
}

// FormatStages renders the breakdown as the aligned table spabench prints.
func FormatStages(stats []StageStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-11s %10s %12s %12s %12s %12s\n", "stage", "count", "mean", "p50", "p95", "p99")
	for _, st := range stats {
		fmt.Fprintf(&b, "  %-11s %10d %12s %12s %12s %12s\n",
			st.Name, st.Count,
			st.Mean.Round(time.Microsecond),
			st.P50.Round(time.Microsecond),
			st.P95.Round(time.Microsecond),
			st.P99.Round(time.Microsecond))
	}
	return b.String()
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
