package server

import (
	"context"
	"errors"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/obs"
)

// The cross-request ingest coalescer: the server-side analogue of the
// store's WAL group commit. Concurrently arriving ingest requests queue
// here; the dispatcher merges whatever is pending into one group commit, so
// N requests pay one commit per wave instead of N. No artificial delay is
// needed — while one commit (and its fsync) is in flight, the next wave of
// requests piles up behind it, which is exactly the batch the dispatcher
// grabs next. MaxDelay adds an optional linger for workloads that prefer
// bigger batches over latency.
//
// The dispatcher has two stages. Stage 1 gathers a wave and runs the
// CPU-bound prepare (validation, sessionization, extraction, per-batch
// attribution) via core.PrepareMulti; stage 2 — a single committer
// goroutine — persists the prepared wave (one ordered store.ApplyAll, one
// WAL sync for the whole wave) and fans the outcomes back. Stage 1 of wave
// N+1 runs concurrently with stage 2 of wave N; genuine CPU/disk overlap
// materializes when the waves touch disjoint shards — a prepare that needs
// a shard the commit holds write-locked waits at that shard's RLock (the
// price of keeping encode+WAL-order atomic against other writers), which
// pipeline_overlap makes visible by counting only prepares that finished
// while a commit was in flight. The handoff channel is unbuffered, so at
// most one prepared wave waits while one commits (pipeline depth ≤ 2).
//
// Correctness properties (see coalescer_test.go):
//   - FIFO: requests enter the merged stream in queue order, so a client
//     that waits for its response before sending the next request keeps its
//     users' event streams ordered across commits. The single gatherer
//     fixes wave order and the single committer commits in that order —
//     and store.ApplyAll guarantees same-shard WriteBatches of successive
//     waves reach the WAL in that order too (crash replay recovers a wave
//     prefix).
//   - No loss: every queued request is dispatched exactly once, including
//     during shutdown drain.
//   - Per-request status: outcomes are attributed per batch, so one
//     submitter's malformed stream fails only that submitter. A store
//     failure fails the whole wave: nothing of it is applied anywhere (see
//     core.PreparedMulti.Commit).

// errQueueFull rejects a request when the pending queue is at capacity —
// the admission-control signal that becomes 503 + Retry-After.
var errQueueFull = errors.New("server: ingest queue full")

// errDraining rejects new requests once shutdown has begun.
var errDraining = errors.New("server: draining")

// waveCommit is a prepared wave awaiting its commit (stage 2's unit of
// work). *core.PreparedMulti implements it.
type waveCommit interface {
	Commit() []core.IngestOutcome
}

// wavePreparer is the coalescer's view of the core: stage 1 calls
// PrepareWave, stage 2 calls Commit on the result. Seam for tests; the real
// backend is spaPreparer.
type wavePreparer interface {
	PrepareWave(batches [][]lifelog.Event) waveCommit
}

// spaPreparer adapts *core.SPA's PrepareMulti to the wavePreparer seam.
type spaPreparer struct{ spa *core.SPA }

func (p spaPreparer) PrepareWave(batches [][]lifelog.Event) waveCommit {
	return p.spa.PrepareMulti(batches)
}

type ingestJob struct {
	events []lifelog.Event
	done   chan ingestDone
	// enqueuedAt stamps admission (set inside enqueue/enqueueWait); the
	// dispatcher observes the queue-wait stage against it at gather time.
	enqueuedAt time.Time
}

type ingestDone struct {
	outcome core.IngestOutcome
	merged  int // requests sharing the commit, >= 1
}

type coalescer struct {
	prep     wavePreparer
	met      *metrics
	queue    chan *ingestJob
	maxBatch int
	maxDelay time.Duration
	// slowWave, when positive, logs a line for every wave whose
	// gather→commit total meets the threshold; logf defaults to
	// log.Printf (tests substitute a recorder).
	slowWave time.Duration
	logf     func(format string, args ...any)

	mu     sync.Mutex
	closed bool
	quit   chan struct{}
	done   chan struct{}
	// producers tracks blocking enqueueWait callers that have passed the
	// closed check and may still be waiting for queue room. close waits for
	// them before closing quit, so the dispatcher's final drain cannot race
	// a late blocking send (the job would be queued with nobody left to
	// commit it).
	producers sync.WaitGroup
}

func newCoalescer(prep wavePreparer, met *metrics, queueDepth, maxBatch int, maxDelay, slowWave time.Duration, logf func(string, ...any)) *coalescer {
	if queueDepth <= 0 {
		queueDepth = 256
	}
	if maxBatch <= 0 {
		maxBatch = 64
	}
	if logf == nil {
		logf = log.Printf
	}
	c := &coalescer{
		prep:     prep,
		met:      met,
		queue:    make(chan *ingestJob, queueDepth),
		maxBatch: maxBatch,
		maxDelay: maxDelay,
		slowWave: slowWave,
		logf:     logf,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go c.run()
	return c
}

// submit enqueues one request's events and blocks until its group commit
// completes, returning the request's own outcome and the commit's size.
// A context cancellation (the HTTP client hung up) releases the caller
// immediately with ctx's error — but the job is already accepted, so the
// dispatcher still commits it; the buffered done channel absorbs the
// result nobody is waiting for. Without this a disconnected client would
// pin its handler goroutine until the commit lands.
func (c *coalescer) submit(ctx context.Context, events []lifelog.Event) (core.IngestOutcome, int, error) {
	job := &ingestJob{events: events, done: make(chan ingestDone, 1)}
	if err := c.enqueue(job); err != nil {
		return core.IngestOutcome{}, 0, err
	}
	select {
	case d := <-job.done:
		return d.outcome, d.merged, nil
	case <-ctx.Done():
		return core.IngestOutcome{}, 0, ctx.Err()
	}
}

// enqueue admits one job without blocking — the HTTP path, where a full
// queue must surface immediately as 503 + Retry-After.
func (c *coalescer) enqueue(job *ingestJob) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errDraining
	}
	// Stamp before the send: the dispatcher may pick the job up the moment
	// it lands in the channel. A rejected job's stamp is discarded with it.
	job.enqueuedAt = time.Now()
	select {
	case c.queue <- job:
		return nil
	default:
		return errQueueFull
	}
}

// enqueueWait admits one job, blocking until the queue has room — the
// stream path, where backpressure travels as withheld credit instead of a
// 503: the stream reader parks here, stops writing responses (and thus
// granting credit), and the client's send window closes by itself. The
// park is always bounded: the dispatcher keeps consuming until quit
// closes, and quit cannot close while a producer is registered — so the
// queue drains and the send lands. ctx is an escape hatch for callers
// that have one; the stream reader passes context.Background() and relies
// on dispatcher progress (it cannot observe its connection dying while
// parked here — a frame read off a now-dead conn still commits, its
// answer written to nobody, same as the HTTP path's hung-up client). The
// producers group keeps the blocking send safe against close: once past
// the closed check the dispatcher is guaranteed to still be consuming
// when the send lands.
func (c *coalescer) enqueueWait(ctx context.Context, job *ingestJob) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errDraining
	}
	c.producers.Add(1)
	c.mu.Unlock()
	defer c.producers.Done()
	// Stamped before the (possibly blocking) send: a producer parked on a
	// full queue is exactly the wait the queue stage should show.
	job.enqueuedAt = time.Now()
	select {
	case c.queue <- job:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops admission, waits for the dispatcher to drain every queued
// request, and returns. Safe to call more than once.
func (c *coalescer) close() {
	c.mu.Lock()
	closing := !c.closed
	c.closed = true
	c.mu.Unlock()
	if closing {
		// No new producer can register (closed is set); wait out the ones
		// already blocking so every accepted job is in the queue before the
		// dispatcher begins its final drain. They cannot wait long: the
		// dispatcher keeps consuming until quit closes.
		c.producers.Wait()
		close(c.quit)
	}
	<-c.done
}

// depth is the current pending-queue length (metrics gauge).
func (c *coalescer) depth() int { return len(c.queue) }

// capacity is the pending-queue bound.
func (c *coalescer) capacity() int { return cap(c.queue) }

// observeQueueWaits records each job's admission→gather wait in the queue
// histogram and returns the longest — the wave's QueueWait. Jobs without a
// stamp (tests constructing jobs by hand) are skipped.
func (c *coalescer) observeQueueWaits(jobs []*ingestJob, gatherStart time.Time) time.Duration {
	var maxWait time.Duration
	var st *obsState
	if c.met != nil {
		st = c.met.obs()
	}
	for _, j := range jobs {
		if j.enqueuedAt.IsZero() {
			continue
		}
		w := gatherStart.Sub(j.enqueuedAt)
		if w < 0 {
			w = 0
		}
		if st != nil {
			st.stage("queue", w)
		}
		if w > maxWait {
			maxWait = w
		}
	}
	return maxWait
}

// finishWave records the completed trace in the ring and emits the
// slow-wave log line when the gather→commit total meets the threshold.
func (c *coalescer) finishWave(t obs.WaveTrace) {
	if c.met != nil {
		c.met.obs().waves.Record(t)
	}
	if c.slowWave > 0 && t.Total() >= c.slowWave {
		c.logf("spad: slow wave %d: total=%s requests=%d events=%d shards=%d queue_wait=%s gather=%s prepare=%s commit_wait=%s commit=%s wal_sync=%s err=%t",
			t.ID, t.Total(), t.Requests, t.Events, t.Shards,
			t.QueueWait, t.Gather, t.Prepare, t.CommitWait, t.Commit, t.WALSync, t.Err)
	}
}

// anyErr reports whether any batch in the wave failed.
func anyErr(outs []core.IngestOutcome) bool {
	for _, o := range outs {
		if o.Err != nil {
			return true
		}
	}
	return false
}

// wave is one gathered-and-prepared group commit in flight between the
// pipeline's stages, carrying its trace-so-far across the handoff.
type wave struct {
	jobs     []*ingestJob
	events   int
	prepared waveCommit

	id        uint64
	start     time.Time // gather began
	queueWait time.Duration
	gather    time.Duration
	prepare   time.Duration
	prepDone  time.Time // prepare finished; commitStart - prepDone = handoff stall
	shards    int
}

// run is the two-stage dispatcher: this goroutine is stage 1 (gather +
// prepare), the committer goroutine is stage 2 (commit + fan-back). The
// unbuffered handoff bounds the pipeline at one wave preparing/prepared
// plus one committing; FIFO order is preserved because both stages are
// single goroutines connected by a channel.
func (c *coalescer) run() {
	defer close(c.done)
	commitq := make(chan *wave)
	commitDone := make(chan struct{})
	go func() {
		defer close(commitDone)
		for w := range commitq {
			c.commitWave(w)
		}
	}()
	defer func() {
		close(commitq)
		<-commitDone
	}()
	for {
		var first *ingestJob
		select {
		case first = <-c.queue:
		case <-c.quit:
			// Drain: everything still queued leaves in merged, prepared
			// waves through the same two stages — the committer finishes
			// them before the deferred close returns. gatherPending batches
			// nonblockingly (gather would consult the already-closed quit
			// channel and commit ~one request at a time).
			for {
				select {
				case j := <-c.queue:
					gatherStart := time.Now()
					c.prepareAndSend(commitq, c.gatherPending([]*ingestJob{j}), gatherStart)
				default:
					return
				}
			}
		}
		gatherStart := time.Now()
		c.prepareAndSend(commitq, c.gather(first), gatherStart)
	}
}

// prepareAndSend runs stage 1 for one wave: CPU-bound prepare, then hand
// the staged wave to the committer. The send blocks while a previous wave
// is still committing.
//
// Overlap is measured, not assumed: a prepare whose shards are all held
// write-locked by the in-flight commit spends its time blocked in RLock
// rather than extracting, so the overlap counter samples the depth gauge
// AFTER the prepare returns — it advances only when the prepare finished
// while an earlier wave was still in flight, i.e. the two stages genuinely
// ran concurrently (waves over disjoint shards).
func (c *coalescer) prepareAndSend(commitq chan<- *wave, jobs []*ingestJob, gatherStart time.Time) {
	batches := make([][]lifelog.Event, len(jobs))
	events := 0
	for i, j := range jobs {
		batches[i] = j.events
		events += len(j.events)
	}
	w := &wave{jobs: jobs, events: events, start: gatherStart}
	w.queueWait = c.observeQueueWaits(jobs, gatherStart)
	w.gather = time.Since(gatherStart)
	if c.met != nil {
		w.id = c.met.waveSeq.Add(1)
		c.met.obs().stage("gather", w.gather)
		c.met.pipelineDepth.Add(1)
	}
	// The wave ID rides the prepared commit into the store so the WAL sync
	// it triggers can be attributed back to this trace. Optional interface:
	// test fakes that only implement Commit keep working untagged.
	prepStart := time.Now()
	prepared := c.prep.PrepareWave(batches)
	if tagged, ok := prepared.(interface{ SetWaveID(uint64) }); ok {
		tagged.SetWaveID(w.id)
	}
	w.prepare = time.Since(prepStart)
	w.prepDone = time.Now()
	if sh, ok := prepared.(interface{ Shards() int }); ok {
		w.shards = sh.Shards()
	}
	if c.met != nil {
		c.met.obs().stage("prepare", w.prepare)
		if c.met.pipelineDepth.Load() > 1 {
			c.met.pipelineOverlap.Add(1)
		}
	}
	w.prepared = prepared
	commitq <- w
}

// commitWave is stage 2: persist the prepared wave and release its waiters.
// The metrics settle BEFORE the fan-back: a submitter that reads /metrics
// the instant its response arrives must see the wave accounted for and the
// depth gauge back down.
func (c *coalescer) commitWave(w *wave) {
	commitStart := time.Now()
	commitWait := commitStart.Sub(w.prepDone)
	if commitWait < 0 {
		commitWait = 0
	}
	outs := w.prepared.Commit()
	commit := time.Since(commitStart)
	if c.met != nil {
		st := c.met.obs()
		st.stage("commit", commit)
		c.met.pipelineDepth.Add(-1)
		c.met.noteCommit(len(w.jobs), w.events)
		c.finishWave(obs.WaveTrace{
			ID:         w.id,
			Start:      w.start,
			Requests:   len(w.jobs),
			Events:     w.events,
			Shards:     w.shards,
			QueueWait:  w.queueWait,
			Gather:     w.gather,
			Prepare:    w.prepare,
			CommitWait: commitWait,
			Commit:     commit,
			WALSync:    st.takeWaveSync(w.id),
			Err:        anyErr(outs),
		})
	}
	for i, j := range w.jobs {
		j.done <- ingestDone{outcome: outs[i], merged: len(w.jobs)}
	}
}

// gather merges the first job with whatever else is already pending, up to
// maxBatch; with MaxDelay set it lingers that long for stragglers.
func (c *coalescer) gather(first *ingestJob) []*ingestJob {
	batch := []*ingestJob{first}
	var timeout <-chan time.Time
	if c.maxDelay > 0 {
		t := time.NewTimer(c.maxDelay)
		defer t.Stop()
		timeout = t.C
	}
	for len(batch) < c.maxBatch {
		if timeout == nil {
			return c.gatherPending(batch)
		}
		select {
		case j := <-c.queue:
			batch = append(batch, j)
		case <-timeout:
			timeout = nil
		case <-c.quit:
			// Shutdown cuts the linger short, but still scoops whatever is
			// already queued: with quit closed this select would otherwise
			// be perpetually ready and fragment the drain into near-empty
			// commits, de-coalescing exactly when the backlog is largest.
			return c.gatherPending(batch)
		}
	}
	return batch
}

// gatherPending tops batch up to maxBatch from the queue without blocking.
func (c *coalescer) gatherPending(batch []*ingestJob) []*ingestJob {
	for len(batch) < c.maxBatch {
		select {
		case j := <-c.queue:
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}
