package server

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/wire"
)

// writePromMetrics renders one metrics snapshot as Prometheus text
// exposition (version 0.0.4). It consumes the same wire.Metrics value the
// JSON encoder does — the two representations are projections of a single
// snapshot, never separate reads of the live counters.
//
// Naming follows the Prometheus conventions the JSON names predate:
// monotonic counters get _total, durations become seconds, and the stage /
// endpoint histograms fold into two families with a label instead of a
// family per name.
func writePromMetrics(w io.Writer, m wire.Metrics) error {
	bool01 := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	fams := []obs.PromFamily{
		{Name: "spad_uptime_seconds", Help: "Seconds since the server started.", Type: "gauge",
			Samples: []obs.PromSample{{Value: m.UptimeSeconds}}},
		{Name: "spad_users", Help: "Registered Smart User Models.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.Users)}}},
		{Name: "spad_requests_total", Help: "HTTP requests received.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.Requests)}}},
		{Name: "spad_request_errors_total", Help: "HTTP requests answered with an error body.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.RequestErrors)}}},
		{Name: "spad_ingest_requests_total", Help: "Ingest requests received (HTTP and stream frames).", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.IngestRequests)}}},
		{Name: "spad_ingest_binary_total", Help: "Ingest requests that negotiated the binary framing.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.IngestBinary)}}},
		{Name: "spad_ingest_events_total", Help: "Events committed through group commits.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.IngestEvents)}}},
		{Name: "spad_ingest_rejected_total", Help: "Ingest requests rejected by admission control (503).", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.IngestRejected)}}},
		{Name: "spad_ingest_commits_total", Help: "Group commits dispatched.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.IngestCommits)}}},
		{Name: "spad_coalesced_requests_total", Help: "Requests summed over group commits.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.CoalescedRequests)}}},
		{Name: "spad_max_coalesced", Help: "Largest group commit observed.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.MaxCoalesced)}}},
		{Name: "spad_queue_depth", Help: "Pending ingest queue length.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.QueueDepth)}}},
		{Name: "spad_queue_capacity", Help: "Pending ingest queue bound.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.QueueCapacity)}}},
		{Name: "spad_pipeline_depth", Help: "Coalescer waves in flight (pipelined dispatcher, <= 2).", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.PipelineDepth)}}},
		{Name: "spad_pipeline_overlap_total", Help: "Waves whose prepare finished while an earlier wave was in flight.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.PipelineOverlap)}}},
		{Name: "spad_stream_conns", Help: "Live ingest stream sessions.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.StreamConns)}}},
		{Name: "spad_stream_frames_total", Help: "Ingest request frames received over streams.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.StreamFrames)}}},
		{Name: "spad_last_wave_id", Help: "Newest coalescer wave ID minted (0 before the first wave).", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.LastWaveID)}}},
		{Name: "spad_snapshot_epoch", Help: "Read-snapshot generation (1 after open, +1 per shard publish; process-local).", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.SnapshotEpoch)}}},
		{Name: "spad_read_cache_hits_total", Help: "Recommend-cache hits on the lock-free read path.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.ReadCacheHits)}}},
		{Name: "spad_read_cache_misses_total", Help: "Recommend-cache misses on the lock-free read path.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.ReadCacheMisses)}}},
		{Name: "spad_recommend_index_hits_total", Help: "Shard rankings served by the shard snapshot's rank index.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.RecommendIndexHits)}}},
		{Name: "spad_recommend_index_misses_total", Help: "Shard rankings served by a scan of the shard's CF rows.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.RecommendIndexMisses)}}},
		{Name: "spad_recommend_index_builds_total", Help: "Rank index builds, one shard each.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.RecommendIndexBuilds)}}},
		{Name: "spad_knn_rebuilds_total", Help: "Retired, always 0: recommendations rank from the snapshot rows and no CF model is rebuilt.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.KNNRebuilds)}}},
		{Name: "spad_durable", Help: "1 when the core runs on a durable store.", Type: "gauge",
			Samples: []obs.PromSample{{Value: bool01(m.Durable)}}},
		{Name: "spad_store_segments", Help: "On-disk segments in the store.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.StoreSegments)}}},
		{Name: "spad_store_segment_bytes", Help: "Total bytes across store segments.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.StoreSegmentBytes)}}},
		{Name: "spad_store_memtable_keys", Help: "Keys resident in the store memtable.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.StoreMemtableKeys)}}},
		{Name: "spad_store_compactions_total", Help: "Completed store compactions.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.StoreCompactions)}}},
		{Name: "spad_wal_sealed_files", Help: "Sealed WAL history files retained for replication.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.WALSealedFiles)}}},
		{Name: "spad_wal_sealed_bytes", Help: "Bytes across sealed WAL history files.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.WALSealedBytes)}}},
		{Name: "spad_wal_discarded_bytes_total", Help: "WAL bytes dropped by corrupt-tail truncation during replay.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.WALDiscardedBytes)}}},
		{Name: "spad_repl_applied_lsn", Help: "Last log position committed locally (leader: committed; follower: applied).", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.ReplAppliedLSN)}}},
		{Name: "spad_repl_lag_waves", Help: "Replication lag in waves (leader: worst follower; follower: behind last reported leader position).", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.ReplLagWaves)}}},
		{Name: "spad_repl_followers", Help: "Live replication sessions (0 on followers and standalone nodes).", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.ReplFollowers)}}},
		{Name: "spad_repl_snapshot_bytes_total", Help: "Snapshot bytes moved for replication (shipped on a leader, restored on a follower).", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.ReplSnapshotBytes)}}},
		{Name: "spad_repl_apply_records_total", Help: "Shipped records applied through the repl_apply stage (a snapshot chunk counts as one); over its count, records per run.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.ReplApplyRecords)}}},
		{Name: "spad_cluster_epoch", Help: "Topology epoch this node serves under (0 outside cluster mode).", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.ClusterEpoch)}}},
		{Name: "spad_cluster_slots_owned", Help: "Keyspace slots this node currently owns (0 outside cluster mode).", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(m.ClusterSlotsOwned)}}},
		{Name: "spad_cluster_bounces_total", Help: "Requests bounced 421 to the owning node.", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.ClusterBounces)}}},
		{Name: "spad_slot_moves_total", Help: "Slots moved through handoffs (shipped or acquired).", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(m.SlotMoves)}}},
	}
	if fam, ok := histFamily("spad_stage_duration_seconds",
		"Pipeline stage latency (decode, queue, gather, prepare, commit, wal_sync, compaction, repl_apply).",
		"stage", stageNames, m.Stages); ok {
		fams = append(fams, fam)
	}
	if fam, ok := histFamily("spad_endpoint_duration_seconds",
		"HTTP endpoint latency by handler name.",
		"endpoint", endpointNames, m.Endpoints); ok {
		fams = append(fams, fam)
	}
	return obs.WriteProm(w, fams)
}

// histFamily folds a name→histogram map into one labeled Prometheus
// histogram family, in the fixed name order so scrapes are diffable.
func histFamily(name, help, label string, order []string, hists map[string]wire.Histogram) (obs.PromFamily, bool) {
	fam := obs.PromFamily{Name: name, Help: help, Type: "histogram"}
	for _, n := range order {
		h, ok := hists[n]
		if !ok {
			continue
		}
		fam.Hists = append(fam.Hists, obs.PromHist{
			Labels:   fmt.Sprintf("%s=%q", label, n),
			Counts:   h.Counts,
			SumNanos: h.SumNanos,
		})
	}
	return fam, len(fam.Hists) > 0
}
