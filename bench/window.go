package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// One timed window: warm-up, then the measured stretch. Rates and
// per-request costs are whole-window totals over whole-window counts: they
// include every flush, compaction and collection the window's work caused,
// and over ten seeds they repeated better than a median over slices of the
// window did (a slice holds too few of the expensive requests).

// windowResult is what one timed window observed.
type windowResult struct {
	first, last procCounters // the process's counters at either end
	s0, s1      scrape
	liveHeap    float64
	stats       []*workerStats

	diskBytes  int64
	liveBytes  int64
	fsyncProbe float64
}

// runWindow drives the workload's lanes through warm-up and the measured
// window and gathers the counters that bracket it.
func runWindow(cfg *config, name string, sh workloadShape, st *stack, seam *seamOps, log *opLog) (*windowResult, error) {
	c := newWindowCtx()
	l := launchers[name](cfg, sh, st, log, c)
	stop := func() {
		c.stop()
		l.wg.Wait()
		for _, f := range l.close {
			f()
		}
	}
	time.Sleep(cfg.warm)
	w := &windowResult{}
	var err error
	if w.s0, err = takeScrape(st, seam); err != nil {
		stop()
		return nil, err
	}
	w.first = readProc()
	c.phase.Store(phMeasure)
	time.Sleep(time.Until(w.first.at.Add(cfg.measure)))
	c.stop()
	w.last = readProc()
	stop()
	if w.s1, err = takeScrape(st, seam); err != nil {
		return nil, err
	}
	w.stats = l.stats
	w.liveHeap = liveHeapMiB()
	return w, nil
}

// pooled is one request kind over all workers: every latency, sorted.
type pooled struct {
	lat    []int64
	failed int
}

func (p *pooled) n() int { return len(p.lat) }

func (w *windowResult) pool(pick func(*workerStats) *kindStats) *pooled {
	p := &pooled{}
	for _, ws := range w.stats {
		ks := pick(ws)
		p.failed += ks.failed
		p.lat = append(p.lat, ks.lat...)
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	return p
}

// headline names the interaction behind a workload's latency_p50_ms. In a
// closed loop requests_per_s already is the reciprocal of the interaction
// the lanes loop over (a frame's ack, a read, a whole session, a frame
// settled on the follower), so the latency gate goes to the interaction the
// rate does not pin down: on session_mix the upload ack — a sixth of a
// session's time, and what a linger or a bigger batch would lengthen; on
// replica_follow the recommend routed over the leader+follower pool, which
// must rebuild its kNN model after every applied wave (the read mix as a
// whole is 60 % those and 40 % reads a thousand times cheaper: its median
// sits on the edge between the two and repeats to a tenth at best).
func headline(name string) func(*workerStats) *kindStats {
	switch name {
	case wlIngestStream, wlSessionMix:
		return func(ws *workerStats) *kindStats { return &ws.ingest }
	case wlReplicaFollow:
		return func(ws *workerStats) *kindStats { return &ws.routed }
	default:
		return func(ws *workerStats) *kindStats { return &ws.read }
	}
}

// windowMetrics derives the end-to-end and scraped per-layer metrics.
func windowMetrics(name string, w *windowResult, ms metricSet, res *runResult) {
	ingest := w.pool(func(ws *workerStats) *kindStats { return &ws.ingest })
	read := w.pool(func(ws *workerStats) *kindStats { return &ws.read })
	write := w.pool(func(ws *workerStats) *kindStats { return &ws.write })
	head := w.pool(headline(name))
	requests := ingest.n() + read.n() + write.n()
	events := 0
	var lag, visible []int64
	for _, ws := range w.stats {
		events += ws.events
		lag = append(lag, ws.lag...)
		visible = append(visible, ws.visible...)
		res.Notes = append(res.Notes, ws.notes...)
	}
	res.Attempted += requests
	res.Failed += ingest.failed + read.failed + write.failed

	first, last := w.first, w.last
	secs := last.at.Sub(first.at).Seconds()
	cpuMs := float64(last.cpuNanos-first.cpuNanos) / 1e6
	n := float64(requests)

	ms.set("requests_per_s", ratio(n, secs), requests)
	ms.set("latency_p50_ms", nsToMs(quantile(head.lat, 0.50)), head.n())
	ms.set("latency_p99_ms", nsToMs(quantile(head.lat, 0.99)), head.n())
	ms.set("cpu_ms_per_kop", ratio(cpuMs, n)*1000, requests)
	ms.set("allocs_per_op", ratio(float64(last.mallocs-first.mallocs), n), requests)

	ms.set("ingest_events_per_s", ratio(float64(events), secs), ingest.n())
	ms.set("ingest_ack_p50_ms", nsToMs(quantile(ingest.lat, 0.50)), ingest.n())
	ms.set("ingest_ack_p99_ms", nsToMs(quantile(ingest.lat, 0.99)), ingest.n())
	ms.set("tail.ingest_ack_p999_ms", nsToMs(quantile(ingest.lat, 0.999)), ingest.n())
	ms.set("tail.ingest_ack_max_ms", nsToMs(quantile(ingest.lat, 1)), ingest.n())
	ms.set("read_ops_per_s", ratio(float64(read.n()), secs), read.n())
	ms.set("read_p50_ms", nsToMs(quantile(read.lat, 0.50)), read.n())
	ms.set("read_p99_ms", nsToMs(quantile(read.lat, 0.99)), read.n())
	ms.set("tail.read_p999_ms", nsToMs(quantile(read.lat, 0.999)), read.n())
	ms.set("tail.read_max_ms", nsToMs(quantile(read.lat, 1)), read.n())

	// Scraped under load: deltas of counters the program already keeps.
	a, b := w.s1.leader, w.s0.leader
	commits := float64(a.IngestCommits - b.IngestCommits)
	ncommits := int(a.IngestCommits - b.IngestCommits)
	ms.set("server.wave_requests_mean", ratio(float64(a.CoalescedRequests-b.CoalescedRequests), commits), ncommits)
	ms.set("server.wave_requests_max", float64(a.MaxCoalesced), ncommits)
	ms.set("server.rejected_share", ratio(float64(a.IngestRejected-b.IngestRejected), float64(a.IngestRequests-b.IngestRequests)), int(a.IngestRequests-b.IngestRequests))
	ms.set("server.pipeline_overlap_share", ratio(float64(a.PipelineOverlap-b.PipelineOverlap), commits), ncommits)
	for _, stage := range []string{"decode", "queue", "gather", "prepare", "commit", "wal_sync"} {
		h := histDelta(a.Stages[stage], b.Stages[stage])
		ms.set("server.stage."+stage+"_p50_us", nsToUs(int64(obs.QuantileFromCounts(h.Counts, 0.5))), int(h.Count))
	}
	hits := float64(a.ReadCacheHits - b.ReadCacheHits)
	misses := float64(a.ReadCacheMisses - b.ReadCacheMisses)
	ms.set("core.read_cache_hit_rate", ratio(hits, hits+misses), int(hits+misses))
	ms.set("core.knn_rebuilds", float64(a.KNNRebuilds-b.KNNRebuilds), 1)
	ms.set("core.snapshot_publishes_per_wave", ratio(float64(a.SnapshotEpoch-b.SnapshotEpoch), commits), ncommits)
	ms.set("store.compactions", float64(a.StoreCompactions-b.StoreCompactions), 1)
	ms.set("store.disk_bytes_per_live_byte", ratio(float64(w.diskBytes), float64(w.liveBytes)), 1)

	if name == wlReplicaFollow {
		fa, fb := w.s1.follower, w.s0.follower
		h := histDelta(fa.Stages["repl_apply"], fb.Stages["repl_apply"])
		ms.set("server.stage.repl_apply_p50_us", nsToUs(int64(obs.QuantileFromCounts(h.Counts, 0.5))), int(h.Count))
		var followerReads uint64
		for _, ep := range []string{"recommend", "advice", "sensibilities"} {
			followerReads += fa.Endpoints[ep].Count - fb.Endpoints[ep].Count
		}
		ms.set("spaclient.follower_read_share", ratio(float64(followerReads), float64(read.n())), read.n())
		sort.Slice(lag, func(i, j int) bool { return lag[i] < lag[j] })
		ms.set("server.repl.lag_waves_p95", float64(quantile(lag, 0.95)), len(lag))
		ms.set("server.repl.visible_p50_ms", nsToMs(medianInt64(visible)), len(visible))
	}

	gcCPU := last.gcCPUSecs - first.gcCPUSecs
	ms.set("proc.gc_cpu_share", ratio(gcCPU*1e3, cpuMs), 1)
	ms.set("proc.gc_cycles", float64(last.numGC-first.numGC), 1)
	ms.set("proc.live_heap_end_mb", w.liveHeap, 1)
	ms.set("proc.heap_alloc_mb_per_s", ratio(float64(last.totalAlloc-first.totalAlloc)/(1<<20), secs), 1)
	ms.set("host.fsync_p50_us", w.fsyncProbe, fsyncProbeSamples)
}
