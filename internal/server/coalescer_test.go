package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lifelog"
)

var t0 = clock.Epoch

// recordingBackend is a wavePreparer that journals every commit it
// receives (batches in submission order) and can slow down or fail on
// demand — the seam that lets the stress tests observe exactly what the
// coalescer fed downstream. Prepare is free; the journaling happens in the
// stage-2 commit.
type recordingBackend struct {
	delay   time.Duration
	failOn  func(batch []lifelog.Event) error
	mu      sync.Mutex
	commits [][][]lifelog.Event
}

func (b *recordingBackend) PrepareWave(batches [][]lifelog.Event) waveCommit {
	return commitFunc(func() []core.IngestOutcome { return b.commit(batches) })
}

func (b *recordingBackend) commit(batches [][]lifelog.Event) []core.IngestOutcome {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	cp := make([][]lifelog.Event, len(batches))
	outs := make([]core.IngestOutcome, len(batches))
	for i, batch := range batches {
		cp[i] = append([]lifelog.Event(nil), batch...)
		if b.failOn != nil {
			outs[i].Err = b.failOn(batch)
		}
		if outs[i].Err == nil {
			outs[i].Processed = len(batch)
		}
	}
	b.mu.Lock()
	b.commits = append(b.commits, cp)
	b.mu.Unlock()
	return outs
}

func (b *recordingBackend) snapshot() [][][]lifelog.Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][][]lifelog.Event(nil), b.commits...)
}

// commitFunc adapts a closure to the waveCommit seam.
type commitFunc func() []core.IngestOutcome

func (f commitFunc) Commit() []core.IngestOutcome { return f() }

func evAt(user uint64, seq int) lifelog.Event {
	return lifelog.Event{
		UserID: user,
		Time:   t0.Add(time.Duration(seq) * time.Second),
		Type:   lifelog.EventClick,
		Action: uint32(seq % lifelog.ActionUniverse),
	}
}

// TestCoalescerOrderAndCompleteness is the correctness core: many clients
// submit sequential requests through one coalescer; afterwards the merged
// stream the backend saw must contain every event exactly once, with every
// user's timestamps strictly increasing across commit boundaries — and the
// concurrency must actually have produced multi-request commits. FIFO holds
// because the single gatherer fixes wave order and the single committer
// commits in that order. Like the other dispatcher cases it runs as the
// "pipelined" subtest, named for the dispatcher it drives.
func TestCoalescerOrderAndCompleteness(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		const (
			clients          = 8
			requestsPer      = 40
			eventsPerRequest = 5
		)
		// The delay stands in for a durable group commit (the fsync window):
		// while one commit runs, the other clients' requests pile up.
		backend := &recordingBackend{delay: 500 * time.Microsecond}
		c := newCoalescer(backend, nil, 256, 64, 0, 0, nil)
		defer c.close()

		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				user := uint64(cl + 1)
				seq := 0
				for r := 0; r < requestsPer; r++ {
					var events []lifelog.Event
					for e := 0; e < eventsPerRequest; e++ {
						seq++
						events = append(events, evAt(user, seq))
					}
					out, merged, err := c.submit(context.Background(), events)
					if err != nil {
						errs <- fmt.Errorf("client %d: %v", cl, err)
						return
					}
					if merged < 1 || out.Err != nil || out.Processed != eventsPerRequest {
						errs <- fmt.Errorf("client %d: outcome %+v merged %d", cl, out, merged)
						return
					}
				}
			}(cl)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		commits := backend.snapshot()
		lastSeen := map[uint64]time.Time{}
		total := 0
		maxMerged := 0
		for _, commit := range commits {
			if len(commit) > maxMerged {
				maxMerged = len(commit)
			}
			for _, batch := range commit {
				for _, e := range batch {
					total++
					if last, ok := lastSeen[e.UserID]; ok && !e.Time.After(last) {
						t.Fatalf("user %d: event at %v not after %v — order broken across merged requests",
							e.UserID, e.Time, last)
					}
					lastSeen[e.UserID] = e.Time
				}
			}
		}
		if want := clients * requestsPer * eventsPerRequest; total != want {
			t.Fatalf("backend saw %d events, submitted %d — events lost or duplicated", total, want)
		}
		if maxMerged < 2 {
			t.Fatalf("no commit merged more than one request — coalescing never engaged")
		}
	})
}

// TestCoalescerErrorFanback drives the coalescer against the real core: a
// malformed request merged with healthy ones must fail alone, and the
// healthy requests' events must all land in the profiles, through the real
// PrepareMulti/Commit split.
func TestCoalescerErrorFanback(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		const clients = 6
		spa, err := core.New(core.Options{Shards: 1, Clock: clock.NewSimulated(t0.Add(time.Hour))})
		if err != nil {
			t.Fatal(err)
		}
		defer spa.Close()
		for cl := 0; cl < clients; cl++ {
			if err := spa.Register(uint64(cl+1), nil); err != nil {
				t.Fatal(err)
			}
		}
		c := newCoalescer(spaPreparer{spa: spa}, nil, 256, 64, time.Millisecond, 0, nil)
		defer c.close()

		var wg sync.WaitGroup
		type result struct {
			bad bool
			out core.IngestOutcome
			err error
		}
		results := make(chan result, clients*20)
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				user := uint64(cl + 1)
				bad := cl == 0 // client 0 submits internally out-of-order streams
				seq := 0
				for r := 0; r < 20; r++ {
					var events []lifelog.Event
					for e := 0; e < 4; e++ {
						seq++
						events = append(events, evAt(user, seq))
					}
					if bad {
						events[0], events[len(events)-1] = events[len(events)-1], events[0]
					}
					out, _, err := c.submit(context.Background(), events)
					results <- result{bad: bad, out: out, err: err}
				}
			}(cl)
		}
		wg.Wait()
		close(results)
		for res := range results {
			if res.err != nil {
				t.Fatalf("submit error: %v", res.err)
			}
			if res.bad && res.out.Err == nil {
				t.Fatal("malformed request reported success")
			}
			if !res.bad && res.out.Err != nil {
				t.Fatalf("healthy request failed: %v", res.out.Err)
			}
			if !res.bad && res.out.Processed != 4 {
				t.Fatalf("healthy request processed %d of 4", res.out.Processed)
			}
		}
	})
}

// TestCoalescerAdmissionControl: with a tiny queue and a slow backend, the
// overflow must be rejected with errQueueFull — never blocked, never lost.
// The pipeline holds at most two extra requests in flight (one preparing,
// one committing), so admission control stays effective there too.
func TestCoalescerAdmissionControl(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		backend := &recordingBackend{delay: 20 * time.Millisecond}
		c := newCoalescer(backend, nil, 2, 1, 0, 0, nil)
		defer c.close()

		const submitters = 16
		var wg sync.WaitGroup
		var accepted, rejected sync.Map
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, err := c.submit(context.Background(), []lifelog.Event{evAt(uint64(i+1), 1)})
				if errors.Is(err, errQueueFull) {
					rejected.Store(i, true)
				} else if err == nil {
					accepted.Store(i, true)
				} else {
					t.Errorf("submit %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		nAccepted, nRejected := 0, 0
		accepted.Range(func(_, _ any) bool { nAccepted++; return true })
		rejected.Range(func(_, _ any) bool { nRejected++; return true })
		if nAccepted+nRejected != submitters {
			t.Fatalf("accounted %d of %d submitters", nAccepted+nRejected, submitters)
		}
		if nRejected == 0 {
			t.Fatal("queue of depth 2 absorbed 16 concurrent submitters — admission control inert")
		}
		// Every accepted request must have reached the backend exactly once.
		total := 0
		for _, commit := range backend.snapshot() {
			total += len(commit)
		}
		if total != nAccepted {
			t.Fatalf("backend saw %d requests, accepted %d", total, nAccepted)
		}
	})
}

// gatedBackend blocks its first commit until released — the seam that lets
// a test pile up a backlog behind an in-flight commit and then trigger
// shutdown at a known point.
type gatedBackend struct {
	recordingBackend
	started chan struct{} // closed when the first commit begins
	release chan struct{} // first commit waits for this
	first   sync.Once
}

func (b *gatedBackend) PrepareWave(batches [][]lifelog.Event) waveCommit {
	return commitFunc(func() []core.IngestOutcome {
		b.first.Do(func() {
			close(b.started)
			<-b.release
		})
		return b.commit(batches)
	})
}

// TestPipelinedDrainMergesBacklog is the graceful-drain batching
// regression: shutting down with a backlog behind a slow commit must still
// drain in merged waves. A drain that re-used gather would consult the
// already-closed quit channel — perpetually ready — and fragment into
// ~single-request commits exactly when the backlog is largest. Stage 1
// keeps at most one prepared wave in flight, so part of the backlog sits in
// the queue when shutdown begins.
func TestPipelinedDrainMergesBacklog(t *testing.T) {
	const (
		backlog  = 32
		maxBatch = 8
	)
	backend := &gatedBackend{started: make(chan struct{}), release: make(chan struct{})}
	c := newCoalescer(backend, nil, 64, maxBatch, time.Millisecond, 0, nil)

	var wg sync.WaitGroup
	errs := make(chan error, backlog+1)
	submit := func(user uint64) {
		defer wg.Done()
		if _, _, err := c.submit(context.Background(), []lifelog.Event{evAt(user, 1)}); err != nil {
			errs <- err
		}
	}
	wg.Add(1)
	go submit(1)
	<-backend.started
	for i := 0; i < backlog; i++ {
		wg.Add(1)
		go submit(uint64(i + 2))
	}
	// Stage 1 can absorb one maxBatch-sized wave beyond the gated commit;
	// the rest must be queued before shutdown begins.
	deadline := time.Now().Add(5 * time.Second)
	for c.depth() < backlog-maxBatch && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if c.depth() < backlog-maxBatch {
		t.Fatalf("backlog never queued: depth %d", c.depth())
	}
	go c.close()
	time.Sleep(2 * time.Millisecond)
	close(backend.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	maxMerged := 0
	total := 0
	commits := backend.snapshot()
	for _, commit := range commits {
		if len(commit) > maxMerged {
			maxMerged = len(commit)
		}
		total += len(commit)
	}
	if total != backlog+1 {
		t.Fatalf("backend saw %d requests, want %d", total, backlog+1)
	}
	if maxMerged < maxBatch/2 {
		t.Fatalf("largest drain commit merged %d requests (maxBatch %d) — drain de-coalesced", maxMerged, maxBatch)
	}
}

// TestPipelinedSubmitHonorsContext: a canceled context releases the waiting
// submitter immediately, but the accepted job still commits — the handler
// goroutine is freed without breaking the no-loss guarantee. Job 1 occupies
// the committer, job 2 sits prepared in stage 1's handoff, job 3 stays
// queued; canceling job 2's context must release its submitter while all
// three still commit.
func TestPipelinedSubmitHonorsContext(t *testing.T) {
	backend := &gatedBackend{started: make(chan struct{}), release: make(chan struct{})}
	c := newCoalescer(backend, nil, 64, 1, 0, 0, nil)
	defer c.close()

	go c.submit(context.Background(), []lifelog.Event{evAt(1, 1)})
	<-backend.started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.submit(ctx, []lifelog.Event{evAt(2, 1)})
		done <- err
	}()
	go c.submit(context.Background(), []lifelog.Event{evAt(3, 1)})
	// Job 3 queues once stage 1 is blocked handing job 2's wave over.
	deadline := time.Now().Add(5 * time.Second)
	for c.depth() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("submit returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("submit still blocked after cancel — disconnected client pins its handler")
	}

	close(backend.release)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		total := 0
		for _, commit := range backend.snapshot() {
			total += len(commit)
		}
		if total == 3 {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("abandoned job never committed: %d commits", len(backend.snapshot()))
}

// steppedBackend commits one wave per token received on next — the seam
// that lets a test step the committer a wave at a time. Closing next lets
// every remaining commit through.
type steppedBackend struct {
	recordingBackend
	next     chan struct{}
	prepared atomic.Int32
}

func (b *steppedBackend) PrepareWave(batches [][]lifelog.Event) waveCommit {
	b.prepared.Add(1)
	return commitFunc(func() []core.IngestOutcome {
		<-b.next
		return b.commit(batches)
	})
}

// TestFlushCoalescerWaitsForQueueRoom: the handoff's sentinel flush parks on
// a full queue instead of polling it, so it enters the queue as soon as a
// slot frees — while the commit after the released one is still held — and
// returns once the jobs ahead of it have committed, its own wave last.
func TestFlushCoalescerWaitsForQueueRoom(t *testing.T) {
	backend := &steppedBackend{next: make(chan struct{})}
	s := &Server{co: newCoalescer(backend, nil, 1, 1, 0, 0, nil)}
	t.Cleanup(func() {
		close(backend.next)
		s.co.close()
	})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("never reached: %s (depth %d, prepared %d)", what, s.co.depth(), backend.prepared.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// Job 1 commits (held), job 2 waits prepared in stage 1's handoff, job 3
	// fills the one-slot queue.
	for u := uint64(1); u <= 2; u++ {
		go s.co.submit(context.Background(), []lifelog.Event{evAt(u, 1)})
		waitFor(fmt.Sprintf("job %d prepared", u), func() bool { return backend.prepared.Load() == int32(u) })
	}
	go s.co.submit(context.Background(), []lifelog.Event{evAt(3, 1)})
	waitFor("job 3 queued", func() bool { return s.co.depth() == 1 })

	flushed := make(chan error, 1)
	go func() { flushed <- s.flushCoalescer() }()
	backend.next <- struct{}{} // job 1 commits; stage 1 takes job 3
	waitFor("the sentinel queued behind job 3", func() bool {
		return backend.prepared.Load() == 3 && s.co.depth() == 1
	})
	select {
	case err := <-flushed:
		t.Fatalf("flush returned before its wave committed: %v", err)
	default:
	}
	for range 3 { // jobs 2 and 3, then the sentinel's wave
		backend.next <- struct{}{}
	}
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush never returned after its wave committed")
	}
	commits := backend.snapshot()
	if len(commits) != 4 || len(commits[3]) != 1 || len(commits[3][0]) != 0 {
		t.Fatalf("commits %v, want three one-event waves then the empty sentinel", commits)
	}
}

// TestCoalescerDrain: close() must commit everything already accepted and
// reject everything after.
func TestCoalescerDrain(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		backend := &recordingBackend{delay: 5 * time.Millisecond}
		c := newCoalescer(backend, nil, 64, 8, 0, 0, nil)

		const pre = 12
		var wg sync.WaitGroup
		okCh := make(chan bool, pre)
		for i := 0; i < pre; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, err := c.submit(context.Background(), []lifelog.Event{evAt(uint64(i+1), 1)})
				okCh <- err == nil
			}(i)
		}
		// Let the submitters enqueue, then shut down while commits are slow.
		time.Sleep(2 * time.Millisecond)
		c.close()
		wg.Wait()
		close(okCh)

		completed := 0
		for ok := range okCh {
			if ok {
				completed++
			}
		}
		total := 0
		for _, commit := range backend.snapshot() {
			total += len(commit)
		}
		if total != completed {
			t.Fatalf("backend committed %d requests, %d submitters saw success — drain dropped work", total, completed)
		}
		if _, _, err := c.submit(context.Background(), []lifelog.Event{evAt(1, 2)}); !errors.Is(err, errDraining) {
			t.Fatalf("submit after close: %v, want errDraining", err)
		}
		if c.depth() != 0 {
			t.Fatalf("queue depth %d after drain", c.depth())
		}
	})
}

// journalPreparer journals prepare and commit order per wave and can gate
// the first commit — the instrument that proves the pipeline actually
// overlaps stage 1 of wave N+1 with stage 2 of wave N, and that commits
// still run in wave order.
type journalPreparer struct {
	gate chan struct{} // commit of wave 0 blocks here

	mu        sync.Mutex
	nextWave  int
	prepared  []int
	committed []int
}

func (p *journalPreparer) PrepareWave(batches [][]lifelog.Event) waveCommit {
	p.mu.Lock()
	id := p.nextWave
	p.nextWave++
	p.prepared = append(p.prepared, id)
	p.mu.Unlock()
	return commitFunc(func() []core.IngestOutcome {
		if id == 0 {
			<-p.gate
		}
		p.mu.Lock()
		p.committed = append(p.committed, id)
		p.mu.Unlock()
		outs := make([]core.IngestOutcome, len(batches))
		for i := range outs {
			outs[i].Processed = len(batches[i])
		}
		return outs
	})
}

func (p *journalPreparer) preparedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.prepared)
}

// TestPipelinedOverlapAndCommitOrder: while wave 0's commit is held open,
// wave 1 must still get prepared (the overlap), the depth gauge must show
// two waves in flight, and after release the commits must land in wave
// order with the overlap counter advanced.
func TestPipelinedOverlapAndCommitOrder(t *testing.T) {
	jp := &journalPreparer{gate: make(chan struct{})}
	met := &metrics{}
	c := newCoalescer(jp, met, 64, 1, 0, 0, nil)
	defer c.close()

	results := make(chan error, 2)
	submit := func(user uint64) {
		out, _, err := c.submit(context.Background(), []lifelog.Event{evAt(user, 1)})
		if err == nil && out.Processed != 1 {
			err = fmt.Errorf("outcome %+v", out)
		}
		results <- err
	}
	go submit(1)
	deadline := time.Now().Add(5 * time.Second)
	for jp.preparedCount() < 1 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	go submit(2)
	// Wave 1's prepare must complete while wave 0 is still inside Commit.
	for jp.preparedCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if jp.preparedCount() < 2 {
		t.Fatal("wave 1 never prepared while wave 0's commit was in flight — no overlap")
	}
	if d := met.pipelineDepth.Load(); d != 2 {
		t.Fatalf("pipeline depth %d with one committing and one prepared wave, want 2", d)
	}
	close(jp.gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	jp.mu.Lock()
	committed := append([]int(nil), jp.committed...)
	jp.mu.Unlock()
	if len(committed) != 2 || committed[0] != 0 || committed[1] != 1 {
		t.Fatalf("commit order %v, want [0 1]", committed)
	}
	if met.pipelineOverlap.Load() == 0 {
		t.Fatal("overlap counter never advanced")
	}
	if d := met.pipelineDepth.Load(); d != 0 {
		t.Fatalf("pipeline depth %d after quiesce, want 0", d)
	}
}
