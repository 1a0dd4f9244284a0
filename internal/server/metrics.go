package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// metrics holds the serving-layer counters behind /metrics. Everything is
// atomic: handlers and the coalescer dispatcher bump them concurrently.
type metrics struct {
	requests      atomic.Uint64
	requestErrors atomic.Uint64

	ingestRequests atomic.Uint64
	ingestBinary   atomic.Uint64
	ingestEvents   atomic.Uint64
	ingestRejected atomic.Uint64

	ingestCommits     atomic.Uint64
	coalescedRequests atomic.Uint64
	maxCoalesced      atomic.Int64

	// Dispatcher instrumentation. pipelineDepth is a gauge of
	// waves in flight (preparing, prepared-waiting, committing; ≤ 2 by
	// construction). pipelineOverlap counts waves whose prepare FINISHED
	// while an earlier wave was still in flight — i.e. the stages measured
	// as genuinely concurrent, which requires the waves not to collide on
	// write-locked shards; a low ratio against ingestCommits means the
	// workload's waves serialize at the shard locks and the pipeline's win
	// is the single wave fsync.
	pipelineDepth   atomic.Int64
	pipelineOverlap atomic.Uint64

	// Streamed ingest (stream.go). streamConns gauges live stream
	// sessions; streamFrames counts ingest request frames received over
	// streams (a subset of ingestRequests).
	streamConns  atomic.Int64
	streamFrames atomic.Uint64

	// waveSeq mints the monotonically increasing wave IDs the coalescer
	// tags group commits with (1-based; 0 means "no wave").
	waveSeq atomic.Uint64

	// Cluster mode (cluster.go). clusterBounces counts requests answered
	// 421 because another node owns the user's slot; slotMoves counts
	// slots this node shipped or acquired through handoffs. Both stay
	// zero outside cluster mode but always render, so the metric key set
	// is deployment-independent.
	clusterBounces atomic.Uint64
	slotMoves      atomic.Uint64

	// replSnapshotBytes counts snapshot bytes this process moved for
	// replication: chunk frames shipped to bootstrapping followers on a
	// leader, or the restored bootstrap size on a follower (seeded from
	// Options.FollowerBootstrapBytes).
	replSnapshotBytes atomic.Int64

	// Stage-latency histograms and the wave-trace ring, built lazily so a
	// zero-value metrics (tests construct these directly) works without a
	// constructor.
	obsOnce sync.Once
	ob      *obsState
}

// stageNames is the fixed key set of the per-stage histograms, in pipeline
// order. "queue" is the wait between admission and gather; "wal_sync" and
// "compaction" arrive through the store observer; "repl_apply" times one
// grouped apply on a follower or handoff target — a whole run of the waves
// already buffered on the wire (follower.go), not one wave — and is zero on
// a leader.
var stageNames = []string{"decode", "queue", "gather", "prepare", "commit", "wal_sync", "compaction", "repl_apply"}

// endpointNames is the fixed key set of the per-endpoint latency
// histograms; the maps stay immutable after build so lookups are
// lock-free. The stream upgrade endpoint is deliberately absent: a
// hijacked connection's "request" lasts the whole session.
var endpointNames = []string{
	"register", "ingest", "question", "answer", "reward", "punish",
	"propensity", "sensibilities", "advice", "recommend", "select_top",
	"healthz", "readyz", "metrics", "debug_waves", "replication_status",
	"topology", "handoff",
}

// waveRingSize is how many wave traces /debug/waves retains.
const waveRingSize = 256

// obsState bundles the stage/endpoint histograms and the wave ring.
type obsState struct {
	stages    map[string]*obs.Histogram
	endpoints map[string]*obs.Histogram
	waves     *obs.WaveRing

	// waveSync maps in-flight wave ID → WAL-sync duration, fed by the
	// store observer during Commit and popped by the committer right
	// after. Commits are serialized, so the map holds at most a couple of
	// entries; the mutex is per-wave, not per-request.
	syncMu   sync.Mutex
	waveSync map[uint64]time.Duration
}

// obs returns the lazily built observability state.
func (m *metrics) obs() *obsState {
	m.obsOnce.Do(func() {
		st := &obsState{
			stages:    make(map[string]*obs.Histogram, len(stageNames)),
			endpoints: make(map[string]*obs.Histogram, len(endpointNames)),
			waves:     obs.NewWaveRing(waveRingSize),
			waveSync:  make(map[uint64]time.Duration),
		}
		for _, n := range stageNames {
			st.stages[n] = new(obs.Histogram)
		}
		for _, n := range endpointNames {
			st.endpoints[n] = new(obs.Histogram)
		}
		m.ob = st
	})
	return m.ob
}

// stage records one stage duration.
func (st *obsState) stage(name string, d time.Duration) {
	if h := st.stages[name]; h != nil {
		h.Observe(d)
	}
}

// noteWaveSync records a WAL sync, remembering tagged ones so the
// committer can attribute the duration to its wave's trace.
func (st *obsState) noteWaveSync(wave uint64, d time.Duration) {
	st.stage("wal_sync", d)
	if wave == 0 {
		return
	}
	st.syncMu.Lock()
	st.waveSync[wave] = d
	st.syncMu.Unlock()
}

// takeWaveSync pops the recorded WAL-sync duration for a wave (zero if the
// commit never synced — unsynced stores, empty waves).
func (st *obsState) takeWaveSync(wave uint64) time.Duration {
	st.syncMu.Lock()
	d := st.waveSync[wave]
	delete(st.waveSync, wave)
	st.syncMu.Unlock()
	return d
}

// storeObserver adapts the metrics histograms to the store.Observer seam.
type storeObserver struct{ m *metrics }

func (o storeObserver) WALSync(wave uint64, d time.Duration) {
	o.m.obs().noteWaveSync(wave, d)
}

func (o storeObserver) Compaction(d time.Duration, err error) {
	o.m.obs().stage("compaction", d)
}

// noteCommit records one dispatched group commit of n requests. Events are
// counted here — on the commit side of admission control — so rejected
// requests never inflate IngestEvents.
func (m *metrics) noteCommit(requests, events int) {
	m.ingestCommits.Add(1)
	m.ingestEvents.Add(uint64(events))
	m.coalescedRequests.Add(uint64(requests))
	for {
		cur := m.maxCoalesced.Load()
		if int64(requests) <= cur || m.maxCoalesced.CompareAndSwap(cur, int64(requests)) {
			return
		}
	}
}

// histDTO converts a histogram to its wire form, trimming trailing zero
// buckets.
func histDTO(h *obs.Histogram) wire.Histogram {
	s := h.Snapshot()
	last := -1
	for i, c := range s.Counts {
		if c != 0 {
			last = i
		}
	}
	out := wire.Histogram{Count: s.Count(), SumNanos: s.SumNanos}
	if last >= 0 {
		out.Counts = append([]uint64(nil), s.Counts[:last+1]...)
	}
	return out
}

// waveDTO converts a wave trace to its wire form.
func waveDTO(t obs.WaveTrace) wire.WaveTrace {
	return wire.WaveTrace{
		ID:              t.ID,
		StartUnixNano:   t.Start.UnixNano(),
		Requests:        t.Requests,
		Events:          t.Events,
		Shards:          t.Shards,
		QueueWaitNanos:  t.QueueWait.Nanoseconds(),
		GatherNanos:     t.Gather.Nanoseconds(),
		PrepareNanos:    t.Prepare.Nanoseconds(),
		CommitWaitNanos: t.CommitWait.Nanoseconds(),
		CommitNanos:     t.Commit.Nanoseconds(),
		WALSyncNanos:    t.WALSync.Nanoseconds(),
		TotalNanos:      t.Total().Nanoseconds(),
		Err:             t.Err,
	}
}
