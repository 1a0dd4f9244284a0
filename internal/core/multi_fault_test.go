package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/sum"
)

// newFaultyCore opens a durable, fsync-on core whose WAL goes through the
// store's killable fault seam.
func newFaultyCore(t *testing.T, shards int) (*SPA, *store.KillableFileOps, string) {
	t.Helper()
	fo := &store.KillableFileOps{}
	dir := t.TempDir()
	s, err := New(Options{
		DataDir: dir,
		Store:   store.Options{SyncWrites: true, DisableAutoCompaction: true, FileOps: fo},
		Shards:  shards,
		Clock:   clock.NewSimulated(t0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fo.Revive()
		s.Close()
	})
	return s, fo, dir
}

// TestIngestStoreFailureLeavesMemoryUnchanged is the divergence regression:
// previously ingestShardMulti wrote the extractor output into the profiles
// BEFORE db.Apply ran, so a store failure reported "not applied" while
// shard memory already carried the new digest. Updates are now staged and
// installed only after the write succeeds — the failed outcome must be
// true in memory too. The case keeps the subtest name of the batched
// group commit, now the only persistence layout.
func TestIngestStoreFailureLeavesMemoryUnchanged(t *testing.T) {
	t.Run("unbatched=false", func(t *testing.T) {
		s, fo, _ := newFaultyCore(t, 1)
		for u := uint64(1); u <= 4; u++ {
			if err := s.Register(u, nil); err != nil {
				t.Fatal(err)
			}
		}
		at := t0.Add(-time.Hour)
		// A first healthy ingest gives the profiles a non-trivial state to
		// diverge from. Searches carry no CF interaction weight, so any
		// interaction evidence would have to come from the failed wave below.
		searchAt := func(user uint64, at time.Time) lifelog.Event {
			return lifelog.Event{UserID: user, Time: at, Type: lifelog.EventSearch}
		}
		if _, _, err := s.BatchIngest([]lifelog.Event{searchAt(1, at), searchAt(2, at)}); err != nil {
			t.Fatal(err)
		}
		before := map[uint64][]byte{}
		for u := uint64(1); u <= 4; u++ {
			p, err := s.Profile(u)
			if err != nil {
				t.Fatal(err)
			}
			before[u] = sum.Encode(&p)
		}

		fo.Kill()
		outs := s.PrepareMulti([][]lifelog.Event{
			{clickAt(1, at.Add(time.Minute), 7), clickAt(3, at.Add(time.Minute), 8)},
			{clickAt(4, at.Add(time.Minute), 9)},
		}).Commit()
		for b, out := range outs {
			if out.Err == nil {
				t.Fatalf("batch %d: store failure not reported: %+v", b, out)
			}
		}
		for u := uint64(1); u <= 4; u++ {
			p, err := s.Profile(u)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sum.Encode(&p), before[u]) {
				t.Fatalf("user %d: failed store write still mutated shard memory", u)
			}
		}
		// The staged CF interactions must not have been installed either.
		if _, err := s.RecommendActions(1, 3); err == nil {
			t.Fatal("failed ingest installed interaction counts")
		}
	})
}

// TestPreparedCommitStoreFailure: the wave-atomic commit path charges every
// contributing batch on an ApplyAll failure and leaves every shard's memory
// untouched.
func TestPreparedCommitStoreFailure(t *testing.T) {
	s, fo, _ := newFaultyCore(t, 8)
	for u := uint64(1); u <= 8; u++ {
		if err := s.Register(u, nil); err != nil {
			t.Fatal(err)
		}
	}
	at := t0.Add(-time.Hour)
	before := map[uint64][]byte{}
	for u := uint64(1); u <= 8; u++ {
		p, err := s.Profile(u)
		if err != nil {
			t.Fatal(err)
		}
		before[u] = sum.Encode(&p)
	}
	var batches [][]lifelog.Event
	for u := uint64(1); u <= 8; u++ {
		batches = append(batches, []lifelog.Event{clickAt(u, at, uint32(u))})
	}
	pm := s.PrepareMulti(batches)
	fo.Kill()
	outs := pm.Commit()
	for b, out := range outs {
		if out.Err == nil {
			t.Fatalf("batch %d: wave failure not charged: %+v", b, out)
		}
	}
	for u := uint64(1); u <= 8; u++ {
		p, err := s.Profile(u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sum.Encode(&p), before[u]) {
			t.Fatalf("user %d: failed wave commit mutated shard memory", u)
		}
	}
}

// TestPreparedCommitConcurrent: overlapping Prepare+Commit calls touching
// many shards must not deadlock (commit acquires shard locks in index
// order) and must lose nothing. Run with -race.
func TestPreparedCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{DataDir: dir, Shards: 8, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const users = 64
	for u := uint64(1); u <= users; u++ {
		if err := s.Register(u, nil); err != nil {
			t.Fatal(err)
		}
	}
	at := t0.Add(-time.Hour)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Disjoint user ranges per worker, ascending timestamps.
			lo := uint64(w*8 + 1)
			for r := 0; r < 10; r++ {
				var evs []lifelog.Event
				for u := lo; u < lo+8; u++ {
					evs = append(evs, clickAt(u, at.Add(time.Duration(r)*time.Second), uint32(u%984)))
				}
				outs := s.PrepareMulti([][]lifelog.Event{evs}).Commit()
				if outs[0].Err != nil || outs[0].Processed != 8 {
					errCh <- fmt.Errorf("worker %d round %d: %+v", w, r, outs[0])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSingleProfileWriteFailureLeavesReadStateUnchanged is the single-profile
// twin of TestIngestStoreFailureLeavesMemoryUnchanged: Register,
// SubmitAnswer, Reward and Punish used to change the live profile and
// publish before persisting, so a failed Put left a read-visible change
// that was not durable — and a retried Register failed with
// ErrAlreadyRegistered. Each now installs only after its write succeeds.
func TestSingleProfileWriteFailureLeavesReadStateUnchanged(t *testing.T) {
	s, fo, dir := newFaultyCore(t, 4)
	for u := uint64(1); u <= 2; u++ {
		if err := s.Register(u, []float64{float64(u)}); err != nil {
			t.Fatal(err)
		}
	}
	before := map[uint64][]byte{}
	for u := uint64(1); u <= 2; u++ {
		p, err := s.Profile(u)
		if err != nil {
			t.Fatal(err)
		}
		before[u] = sum.Encode(&p)
	}
	users, epoch := s.Users(), s.SnapshotEpoch()
	item, err := s.NextQuestion(1)
	if err != nil {
		t.Fatal(err)
	}

	fo.Kill()
	attrs := []emotion.Attribute{emotion.Attribute(0), emotion.Attribute(1)}
	writes := map[string]func() error{
		"register": func() error { return s.Register(3, nil) },
		"answer":   func() error { return s.SubmitAnswer(1, emotion.Answer{ItemID: item.ID, Option: 0}) },
		"reward":   func() error { return s.Reward(1, attrs) },
		"punish":   func() error { return s.Punish(2, attrs) },
	}
	for name, write := range writes {
		if err := write(); err == nil {
			t.Fatalf("%s: store failure not reported", name)
		}
		if got := s.Users(); got != users {
			t.Fatalf("%s: Users() %d after a failed write, want %d", name, got, users)
		}
		if got := s.SnapshotEpoch(); got != epoch {
			t.Fatalf("%s: SnapshotEpoch() %d after a failed write, want %d", name, got, epoch)
		}
		if _, err := s.Profile(3); !errors.Is(err, ErrNoProfile) {
			t.Fatalf("%s: failed registration visible: %v", name, err)
		}
		for u, want := range before {
			p, err := s.Profile(u)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sum.Encode(&p), want) {
				t.Fatalf("%s: user %d changed by a failed write", name, u)
			}
		}
	}
	// The retry is not refused as a duplicate: the failed registration left
	// nothing behind (the log stays disabled until reopen, so it fails for
	// the store's reason) ...
	if err := s.Register(3, nil); err == nil || errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("retried registration: %v, want the store's error", err)
	}
	// ... and succeeds once the store is healthy again.
	fo.Revive()
	s.Close() // may report the failed log again; the reopen below is the check
	s2, err := New(Options{DataDir: dir, Shards: 4, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Register(3, nil); err != nil {
		t.Fatalf("registration after recovery: %v", err)
	}
	for u, want := range before {
		p, err := s2.Profile(u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sum.Encode(&p), want) {
			t.Fatalf("user %d: durable state differs from what reads showed", u)
		}
	}
}

// tearingFileOps is a KillableFileOps whose next WAL write can be torn:
// once tear is set, that write lands only tear(len) of its bytes — what a
// crash mid-append leaves on disk — fails, and kills the device.
type tearingFileOps struct {
	store.KillableFileOps
	tear func(n int) int
}

func (f *tearingFileOps) OpenWAL(name string) (store.WALFile, error) {
	w, err := f.KillableFileOps.OpenWAL(name)
	if err != nil {
		return nil, err
	}
	return &tearingWAL{WALFile: w, fs: f}, nil
}

type tearingWAL struct {
	store.WALFile
	fs *tearingFileOps
}

func (w *tearingWAL) Write(p []byte) (int, error) {
	if w.fs.tear == nil {
		return w.WALFile.Write(p)
	}
	n, _ := w.WALFile.Write(p[:w.fs.tear(len(p))])
	w.fs.tear = nil
	w.fs.Kill()
	return n, errors.New("wal write torn (injected)")
}

// TestTornWaveRecoversWholeOrNothing: a crash that tears the append of a
// wave spanning 8 shards — at the first byte, the middle or one byte short
// of the end — recovers none of the wave in any shard, while every earlier
// wave survives intact. The crash image is a copy of the data directory
// taken right after the torn write.
func TestTornWaveRecoversWholeOrNothing(t *testing.T) {
	for _, cut := range []struct {
		name string
		keep func(n int) int
	}{
		{"first byte", func(int) int { return 1 }},
		{"middle", func(n int) int { return n / 2 }},
		{"one byte short", func(n int) int { return n - 1 }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			fo := &tearingFileOps{}
			dir := t.TempDir()
			opts := Options{DataDir: dir, Shards: 16, Clock: clock.NewSimulated(t0),
				Store: store.Options{SyncWrites: true, DisableAutoCompaction: true, FileOps: fo}}
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				fo.Revive()
				s.Close()
			})
			// Eight users, each in a shard of its own.
			var ids []uint64
			taken := map[int]bool{}
			for id := uint64(1); len(ids) < 8; id++ {
				if idx := s.shardIndexFor(id); !taken[idx] {
					taken[idx] = true
					ids = append(ids, id)
					if err := s.Register(id, []float64{float64(id), 1}); err != nil {
						t.Fatal(err)
					}
				}
			}
			at := t0.Add(-time.Hour)
			wave := func(r int) IngestOutcome {
				var evs []lifelog.Event
				for _, id := range ids {
					evs = append(evs, clickAt(id, at.Add(time.Duration(r)*time.Minute), uint32(id)+uint32(r)))
				}
				pm := s.PrepareMulti([][]lifelog.Event{evs})
				if pm.Shards() != len(ids) {
					t.Fatalf("wave spans %d shards, want %d", pm.Shards(), len(ids))
				}
				return pm.Commit()[0]
			}
			for r := 0; r < 2; r++ {
				if out := wave(r); out.Err != nil {
					t.Fatal(out.Err)
				}
			}
			before := map[uint64][]byte{}
			for _, id := range ids {
				p, err := s.Profile(id)
				if err != nil {
					t.Fatal(err)
				}
				before[id] = sum.Encode(&p)
			}

			fo.tear = cut.keep
			if out := wave(2); out.Err == nil {
				t.Fatal("torn wave reported applied")
			}
			crash := t.TempDir()
			if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			opts.DataDir, opts.Store = crash, store.Options{}
			s2, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			for _, id := range ids {
				p, err := s2.Profile(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sum.Encode(&p), before[id]) {
					t.Errorf("user %d (shard %d): recovered profile is not the one before the torn wave", id, s2.shardIndexFor(id))
				}
			}
		})
	}
}
