package main

// The benchmark's vocabulary: workload names, metric names, units and
// bounds. BENCHMARK.json at the repository root states the same lists for
// the driver; TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// Workload names are fixed; later issues cite them.
const (
	wlIngestStream  = "ingest_stream"
	wlReadHot       = "read_hot"
	wlSessionMix    = "session_mix"
	wlReplicaFollow = "replica_follow"
)

var workloadNames = []string{wlIngestStream, wlReadHot, wlSessionMix, wlReplicaFollow}

// metricDef names one metric. Bound is the share of the baseline median by
// which the metric may worsen before -compare calls it regressed; per-layer
// metrics carry no gate in BENCHMARK.json, but the request-kind ones keep
// the issue's bound so -compare can still judge them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is reported by every workload (the driver requires every
// end-to-end metric from every run, never zero), so each is phrased over
// "client requests" and "the workload's headline interaction" rather than
// over one request kind; the kind-specific figures the issue names live in
// perLayer under their original names. A bound is three times the widest
// interquartile spread the metric showed on any workload over ten-seed
// sweeps of one commit, rounded up, and at most the driver's 0.25 (README,
// "Baseline and measured spreads"): the counts repeat to 0.0-4.0 %, the
// times to 1-13 % on this host, which drifts.
var endToEnd = []metricDef{
	{"requests_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_kop", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.12},
	{"live_heap_mb", "MiB", "lower", 0.07},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	// No p99 repeats within a tenth on this host however long the window
	// (two sets of three runs of one commit differed by 10.7 % with spreads
	// under 10 %), so by the issue's own rule they are reported here, under
	// their names, and not judged.
	{"latency_p99_ms", "ms", "lower", 0},
	// Request-kind end-to-end figures (zero on workloads without the kind).
	// The medians and rates keep the issue's bound: -compare judges them
	// where they exist, and says "unresolved" when the host is too noisy to
	// judge at a tenth.
	{"ingest_events_per_s", "events/s", "higher", 0.10},
	{"ingest_ack_p50_ms", "ms", "lower", 0.10},
	{"ingest_ack_p99_ms", "ms", "lower", 0},
	{"read_ops_per_s", "ops/s", "higher", 0.10},
	{"read_p50_ms", "ms", "lower", 0.10},
	{"read_p99_ms", "ms", "lower", 0},
	{"failed_share", "share", "lower", 0}, // absolute: -compare calls any failure in B regressed
	{"tail.ingest_ack_p999_ms", "ms", "lower", 0},
	{"tail.ingest_ack_max_ms", "ms", "lower", 0},
	{"tail.read_p999_ms", "ms", "lower", 0},
	{"tail.read_max_ms", "ms", "lower", 0},
	{"host.fsync_p50_us", "us", "lower", 0},

	// wire (traced)
	{"wire.encode_req_us", "us", "lower", 0},
	{"wire.decode_req_us", "us", "lower", 0},
	{"wire.decode_req_allocs", "count", "lower", 0},
	{"wire.req_bytes_per_event", "bytes", "lower", 0},
	{"wire.encode_repl_wave_us", "us", "lower", 0},
	{"wire.decode_repl_wave_us", "us", "lower", 0},

	// spaclient (traced; follower_read_share scraped)
	{"spaclient.ingest_self_us", "us", "lower", 0},
	{"spaclient.stream_ingest_self_us", "us", "lower", 0},
	{"spaclient.read_self_us", "us", "lower", 0},
	{"spaclient.allocs_per_ingest", "count", "lower", 0},
	{"spaclient.follower_read_share", "share", "higher", 0},

	// server (traced)
	{"server.ingest_self_us", "us", "lower", 0},
	{"server.read_self_us", "us", "lower", 0},
	{"server.single_write_self_us", "us", "lower", 0},
	{"server.serve_http_allocs", "count", "lower", 0},

	// server (scraped under load)
	{"server.wave_requests_mean", "count", "higher", 0},
	{"server.wave_requests_max", "count", "higher", 0},
	{"server.rejected_share", "share", "lower", 0},
	{"server.pipeline_overlap_share", "share", "higher", 0},
	{"server.stage.decode_p50_us", "us", "lower", 0},
	{"server.stage.queue_p50_us", "us", "lower", 0},
	{"server.stage.gather_p50_us", "us", "lower", 0},
	{"server.stage.prepare_p50_us", "us", "lower", 0},
	{"server.stage.commit_p50_us", "us", "lower", 0},
	{"server.stage.wal_sync_p50_us", "us", "lower", 0},
	{"server.stage.repl_apply_p50_us", "us", "lower", 0},

	// server.repl
	{"server.repl.bootstrap_ms", "ms", "lower", 0},
	{"server.repl.visible_p50_ms", "ms", "lower", 0},
	{"server.repl.lag_waves_p95", "count", "lower", 0},

	// core (traced)
	{"core.prepare_us", "us", "lower", 0},
	{"core.commit_self_us", "us", "lower", 0},
	{"core.prepare_allocs", "count", "lower", 0},
	{"core.commit_allocs", "count", "lower", 0},
	{"core.recommend_us", "us", "lower", 0},
	{"core.advise_us", "us", "lower", 0},
	{"core.propensity_us", "us", "lower", 0},
	{"core.select_top_us", "us", "lower", 0},
	{"core.submit_answer_us", "us", "lower", 0},
	{"core.reward_us", "us", "lower", 0},
	{"core.apply_replicated_wave_us", "us", "lower", 0},
	{"core.export_snapshot_ms", "ms", "lower", 0},
	{"core.reopen_ms", "ms", "lower", 0},

	// core (scraped)
	{"core.read_cache_hit_rate", "share", "higher", 0},
	{"core.knn_rebuilds", "count", "lower", 0},
	{"core.snapshot_publishes_per_wave", "count", "lower", 0},

	// store
	{"store.apply_all_us", "us", "lower", 0},
	{"store.apply_all_self_us", "us", "lower", 0},
	{"store.put_us", "us", "lower", 0},
	{"store.tail_next_us", "us", "lower", 0},
	{"store.restore_snapshot_ms", "ms", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"store.wal_bytes_per_payload_byte", "ratio", "lower", 0},
	{"store.disk_bytes_per_live_byte", "ratio", "lower", 0},
	{"store.syncs_per_wave", "count", "lower", 0},
	{"store.flushes", "count", "lower", 0},
	{"store.compactions", "count", "lower", 0},
	{"store.compaction_bytes_per_wal_byte", "ratio", "lower", 0},

	// file (the FileOps seam)
	{"file.wal_writes_per_wave", "count", "lower", 0},
	{"file.wal_bytes_per_wave", "bytes", "lower", 0},
	{"file.wal_sync_p50_us", "us", "lower", 0},
	{"file.wal_sync_p99_us", "us", "lower", 0},
	{"file.seg_write_bytes", "bytes", "lower", 0},

	// proc
	{"proc.gc_cpu_share", "share", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.heap_alloc_mb_per_s", "MiB/s", "lower", 0},
	{"proc.live_heap_end_mb", "MiB", "lower", 0},

	// trace
	{"trace.unattributed_share", "share", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// metricValue is one reported number. Samples is how many observations the
// value summarises (1 for a counter delta or a single timing).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet collects one run's metrics by name. set refuses unknown names
// so a typo cannot silently drop a metric from the report.
type metricSet map[string]metricValue

var metricUnits = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

func (ms metricSet) set(name string, value float64, samples int) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: metric not in spec: " + name)
	}
	ms[name] = metricValue{Value: value, Unit: unit, Samples: samples}
}

// fillMissing gives every metric of the spec an entry: a metric a workload
// does not exercise reports zero with zero samples instead of vanishing,
// so every run prints the same rows.
func (ms metricSet) fillMissing() {
	for name, unit := range metricUnits {
		if _, ok := ms[name]; !ok {
			ms[name] = metricValue{Unit: unit}
		}
	}
}
