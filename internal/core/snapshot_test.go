package core

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lifelog"
	"repro/internal/store"
)

// trainOn fits the propensity model on the given users' current feature
// vectors with alternating labels.
func trainOn(t *testing.T, s *SPA, ids ...uint64) {
	t.Helper()
	var feats [][]float64
	var labels []bool
	for i, id := range ids {
		fv, err := s.FeatureVector(id)
		if err != nil {
			t.Fatal(err)
		}
		feats = append(feats, fv)
		labels = append(labels, i%2 == 0)
	}
	if err := s.TrainPropensity(feats, labels); err != nil {
		t.Fatal(err)
	}
}

// TestSelectTopPartialSelection: one profile the scaler cannot transform
// (its objective block has a different dimensionality than the training
// set) must not void the whole ranking. The selection skips it, reports
// the skip, and still ranks everyone else.
func TestSelectTopPartialSelection(t *testing.T) {
	s := newSPA(t, "")
	for id := uint64(1); id <= 8; id++ {
		if err := s.Register(id, []float64{float64(id), 1}); err != nil {
			t.Fatal(err)
		}
	}
	trainOn(t, s, 1, 2, 3, 4, 5, 6, 7, 8)
	// A later registration with a wider objective block: FeatureVector
	// length no longer matches the fitted scaler.
	if err := s.Register(99, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	ids, err := s.SelectTop(20)
	if err == nil {
		t.Fatal("want partial-selection error")
	}
	if !errors.Is(err, ErrPartialSelection) {
		t.Fatalf("err = %v, want ErrPartialSelection", err)
	}
	var partial *PartialSelectionError
	if !errors.As(err, &partial) {
		t.Fatalf("err = %T, want *PartialSelectionError", err)
	}
	if partial.Skipped != 1 {
		t.Fatalf("skipped %d, want 1", partial.Skipped)
	}
	if len(ids) != 8 {
		t.Fatalf("ranked %d users, want 8: %v", len(ids), ids)
	}
	for _, id := range ids {
		if id == 99 {
			t.Fatalf("unscorable user ranked: %v", ids)
		}
	}
}

// TestConcurrentReadsDuringIngest runs every read endpoint against
// concurrent BatchIngest and split PrepareMulti/Commit writers (run
// with -race). Afterward the epoch must have advanced and — extending
// TestRecommendActionsInvalidatedByNewIngest — a read issued after fresh
// neighbor evidence must reflect it.
func TestConcurrentReadsDuringIngest(t *testing.T) {
	s := newSPA(t, t.TempDir())
	s.Register(1, nil)
	s.Register(2, nil)
	ingestClicks(t, s, map[uint64][]uint32{1: {10}, 2: {10, 20}})
	for id := uint64(10); id < 42; id++ {
		if err := s.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	trainOn(t, s, 1, 2, 10, 11, 12, 13)

	e0 := s.SnapshotEpoch()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer A: BatchIngest over its own users; writer B: the
	// prepare/commit split over a disjoint span. Neither touches the
	// actions that decide user 1's recommendations (10, 20, 21).
	makeBatch := func(base uint64, round int) []lifelog.Event {
		at := t0.Add(time.Duration(round) * time.Minute)
		var evs []lifelog.Event
		for u := uint64(0); u < 8; u++ {
			evs = append(evs, lifelog.Event{
				UserID: base + u, Time: at, Type: lifelog.EventClick,
				Action: uint32(100 + int(base+u)*3%50),
			})
		}
		return evs
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := s.BatchIngest(makeBatch(10, round)); err != nil {
				t.Errorf("batch ingest: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			pm := s.PrepareMulti([][]lifelog.Event{makeBatch(20, round)})
			for _, o := range pm.Commit() {
				if o.Err != nil {
					t.Errorf("pipelined commit: %v", o.Err)
					return
				}
			}
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			uid := uint64(10 + w)
			for i := 0; i < 150; i++ {
				p, err := s.Profile(uid)
				if err != nil {
					t.Errorf("profile: %v", err)
					return
				}
				// A torn profile would surface as a half-installed
				// subjective block.
				if n := len(p.Subjective); n != 0 && n != lifelog.DenseLen {
					t.Errorf("torn subjective block: len %d", n)
					return
				}
				if _, err := s.RecommendActions(uid, 3); err != nil && !errors.Is(err, ErrNoInteractions) {
					t.Errorf("recommend: %v", err)
					return
				}
				if _, err := s.Propensity(uid); err != nil {
					t.Errorf("propensity: %v", err)
					return
				}
				if _, err := s.SelectTop(4); err != nil {
					t.Errorf("select-top: %v", err)
					return
				}
				if _, err := s.Advise(uid, "training"); err != nil {
					t.Errorf("advise: %v", err)
					return
				}
			}
		}(w)
	}
	// Readers drain first; then stop the writers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done

	if e1 := s.SnapshotEpoch(); e1 <= e0 {
		t.Fatalf("epoch did not advance under ingest: %d -> %d", e0, e1)
	}
	// Post-invalidation freshness: decisive new neighbor evidence must be
	// visible to the very next read.
	var events []lifelog.Event
	at := t0.Add(time.Hour)
	for i := 0; i < 5; i++ {
		events = append(events, lifelog.Event{UserID: 2, Time: at, Type: lifelog.EventEnroll, Action: 21})
		at = at.Add(time.Minute)
	}
	if _, _, err := s.IngestEvents(events); err != nil {
		t.Fatal(err)
	}
	recs, err := s.RecommendActions(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Action != 21 {
		t.Fatalf("read after invalidation served stale model: %v", recs)
	}
}

// gatedFileOps parks WAL writes while armed, so a commit can be held
// mid-sync with its shard write locks taken.
type gatedFileOps struct {
	armed  atomic.Bool
	parked atomic.Int32
	gate   chan struct{}
}

func (f *gatedFileOps) Create(name string) (store.SegFile, error) { return os.Create(name) }
func (f *gatedFileOps) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (f *gatedFileOps) Remove(name string) error                  { return os.Remove(name) }
func (f *gatedFileOps) OpenWAL(name string) (store.WALFile, error) {
	file, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &gatedWAL{fs: f, File: file}, nil
}

type gatedWAL struct {
	fs *gatedFileOps
	*os.File
}

func (w *gatedWAL) Write(p []byte) (int, error) {
	if w.fs.armed.Load() {
		w.fs.parked.Add(1)
		<-w.fs.gate
	}
	return w.File.Write(p)
}

// TestReadsCompleteWhileCommitParkedOnWALSync is the lock-freedom claim
// stated as a test: park a pipelined Commit inside its WAL write — shard
// write locks held — and every read path must still complete.
func TestReadsCompleteWhileCommitParkedOnWALSync(t *testing.T) {
	fops := &gatedFileOps{gate: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(fops.gate) }) }
	defer release()

	s, err := New(Options{
		DataDir: t.TempDir(),
		Shards:  2,
		Store:   store.Options{SyncWrites: true, FileOps: fops},
		Clock:   clock.NewSimulated(t0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := uint64(1); id <= 4; id++ {
		if err := s.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	ingestClicks(t, s, map[uint64][]uint32{1: {10}, 2: {10, 20}})
	trainOn(t, s, 1, 2, 3, 4)
	// Warm the models so the reads below measure the steady state.
	if _, err := s.RecommendActions(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SelectTop(2); err != nil {
		t.Fatal(err)
	}

	// Park a wave that touches both shards.
	pm := s.PrepareMulti([][]lifelog.Event{{
		{UserID: 1, Time: t0.Add(time.Hour), Type: lifelog.EventClick, Action: 30},
		{UserID: 2, Time: t0.Add(time.Hour), Type: lifelog.EventClick, Action: 31},
	}})
	fops.armed.Store(true)
	commitDone := make(chan []IngestOutcome, 1)
	go func() { commitDone <- pm.Commit() }()
	deadline := time.Now().Add(2 * time.Second)
	for fops.parked.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("commit never reached the WAL")
		}
		time.Sleep(time.Millisecond)
	}

	readsDone := make(chan error, 1)
	go func() {
		readsDone <- func() error {
			if _, err := s.Profile(1); err != nil {
				return fmt.Errorf("profile: %w", err)
			}
			if _, err := s.RecommendActions(1, 1); err != nil {
				return fmt.Errorf("recommend: %w", err)
			}
			if _, err := s.Propensity(2); err != nil {
				return fmt.Errorf("propensity: %w", err)
			}
			if _, err := s.SelectTop(2); err != nil {
				return fmt.Errorf("select-top: %w", err)
			}
			if _, err := s.Advise(2, "training"); err != nil {
				return fmt.Errorf("advise: %w", err)
			}
			if _, err := s.Sensibilities(1); err != nil {
				return fmt.Errorf("sensibilities: %w", err)
			}
			return nil
		}()
	}()
	select {
	case err := <-readsDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reads blocked behind a parked commit — read path is not lock-free")
	}

	fops.armed.Store(false)
	release()
	select {
	case out := <-commitDone:
		for _, o := range out {
			if o.Err != nil {
				t.Fatalf("commit: %v", o.Err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit never finished after release")
	}
}

// TestSnapshotEpochAcrossReopen pins the epoch's restart contract: the
// counter is process-local (reseeded to 1 on open, cross-restart ordering
// belongs to the WAL), replayed state is visible through the reseeded
// snapshots, and the epoch is strictly monotone within a process.
func TestSnapshotEpochAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := newSPA(t, dir)
	s1.Register(1, nil)
	s1.Register(2, nil)
	ingestClicks(t, s1, map[uint64][]uint32{1: {10}, 2: {10, 20}})
	if e := s1.SnapshotEpoch(); e < 2 {
		t.Fatalf("epoch %d after writes, want >= 2", e)
	}
	s1.Close()

	s2 := newSPA(t, dir)
	e0 := s2.SnapshotEpoch()
	if e0 < 1 {
		t.Fatalf("epoch %d after reopen, want >= 1", e0)
	}
	// Replayed state must be readable through the reseeded snapshots.
	p, err := s2.Profile(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subjective) != lifelog.DenseLen {
		t.Fatalf("replayed profile lost its subjective block: len %d", len(p.Subjective))
	}
	// CF interaction counts are process-local (derived from the live event
	// stream, not persisted): a reopened core starts cold, not torn.
	if _, err := s2.RecommendActions(1, 1); !errors.Is(err, ErrNoInteractions) {
		t.Fatalf("recommend after reopen: %v, want ErrNoInteractions", err)
	}
	ingestClicks(t, s2, map[uint64][]uint32{1: {11}})
	if e1 := s2.SnapshotEpoch(); e1 <= e0 {
		t.Fatalf("epoch not monotone across a write: %d -> %d", e0, e1)
	}
}

// TestReadStatsCounters pins the read-path gauge hygiene: a fresh core
// starts with zeroed cache counters, a repeated recommendation is a cache
// hit, and an ingest invalidates the cache.
func TestReadStatsCounters(t *testing.T) {
	s := newSPA(t, "")
	rs := s.ReadStats()
	if rs.ReadCacheHits != 0 || rs.ReadCacheMisses != 0 {
		t.Fatalf("fresh core counters not zero: %+v", rs)
	}
	if rs.SnapshotEpoch != 1 {
		t.Fatalf("fresh epoch %d, want 1", rs.SnapshotEpoch)
	}
	s.Register(1, nil)
	s.Register(2, nil)
	ingestClicks(t, s, map[uint64][]uint32{1: {10}, 2: {10, 20}})

	if _, err := s.RecommendActions(1, 1); err != nil {
		t.Fatal(err)
	}
	rs = s.ReadStats()
	if rs.ReadCacheMisses != 1 || rs.ReadCacheHits != 0 {
		t.Fatalf("after first read: %+v", rs)
	}
	if _, err := s.RecommendActions(1, 1); err != nil {
		t.Fatal(err)
	}
	rs = s.ReadStats()
	if rs.ReadCacheHits != 1 || rs.ReadCacheMisses != 1 {
		t.Fatalf("repeat read not a cache hit: %+v", rs)
	}

	ingestClicks(t, s, map[uint64][]uint32{2: {21}})
	if _, err := s.RecommendActions(1, 1); err != nil {
		t.Fatal(err)
	}
	rs = s.ReadStats()
	if rs.ReadCacheMisses != 2 || rs.ReadCacheHits != 1 {
		t.Fatalf("ingest did not invalidate the cache: %+v", rs)
	}
}
