package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mkBatch(kv ...string) *WriteBatch {
	var b WriteBatch
	for i := 0; i+1 < len(kv); i += 2 {
		b.Put([]byte(kv[i]), []byte(kv[i+1]))
	}
	return &b
}

func TestApplyAllVisibleAndRecovered(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	// Later batches overwrite earlier ones — slice order must win.
	if err := db.ApplyAll([]*WriteBatch{
		mkBatch("x", "old", "a", "1"),
		mkBatch("b", "2"),
		mkBatch("x", "new", "c", "3"),
	}); err != nil {
		t.Fatal(err)
	}
	check := func(d *DB, what string) {
		t.Helper()
		for k, want := range map[string]string{"x": "new", "a": "1", "b": "2", "c": "3"} {
			v, err := d.Get([]byte(k))
			if err != nil || string(v) != want {
				t.Fatalf("%s: %s = %q %v, want %q", what, k, v, err, want)
			}
		}
	}
	check(db, "live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "reopened")
}

func TestApplyAllEmptyAndClosed(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyAll(nil); err != nil {
		t.Fatalf("empty sequence: %v", err)
	}
	if err := db.ApplyAll([]*WriteBatch{{}, {}}); err != nil {
		t.Fatalf("all-empty sequence: %v", err)
	}
	var bad WriteBatch
	bad.entries = append(bad.entries, walEntry{key: nil, value: []byte("v")})
	if err := db.ApplyAll([]*WriteBatch{mkBatch("k", "v"), &bad}); err == nil {
		t.Fatal("empty key accepted")
	}
	// Validation rejects before any WAL append: the healthy batch must not
	// have been applied either.
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("partial sequence applied: %v", err)
	}
	db.Close()
	if err := db.ApplyAll([]*WriteBatch{mkBatch("k", "v")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed db: %v", err)
	}
}

// TestApplyAllCrashPrefix is the ordering half of the pipelined-commit
// contract: two ApplyAll "waves" land in the WAL in dispatch order, so a
// crash at ANY byte boundary recovers a prefix of the batch sequence —
// wave 2's state is never visible without wave 1's, and the shared key
// always carries the newest recovered wave's value.
func TestApplyAllCrashPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	// Wave 1: two batches; wave 2: two batches. "x" is the same-shard key
	// both waves rewrite; the w* markers identify which batches survived.
	if err := db.ApplyAll([]*WriteBatch{
		mkBatch("x", "wave1", "w1a", "1"),
		mkBatch("w1b", "1"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyAll([]*WriteBatch{
		mkBatch("x", "wave2", "w2a", "1"),
		mkBatch("w2b", "1"),
	}); err != nil {
		t.Fatal(err)
	}
	db.Sync()
	db.wal.f.Close() // crash: no Close, no Flush

	walPath := filepath.Join(dir, "wal.log")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	has := func(d *DB, k string) bool {
		_, err := d.Get([]byte(k))
		return err == nil
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		if err := os.WriteFile(walPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir, Options{DisableAutoCompaction: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Recovered batches must form a prefix of [w1a, w1b, w2a, w2b].
		chain := []string{"w2b", "w2a", "w1b", "w1a"}
		for i := 0; i+1 < len(chain); i++ {
			if has(db2, chain[i]) && !has(db2, chain[i+1]) {
				t.Fatalf("cut %d: %s recovered without %s — not a prefix", cut, chain[i], chain[i+1])
			}
		}
		switch v, err := db2.Get([]byte("x")); {
		case has(db2, "w2a"):
			if err != nil || string(v) != "wave2" {
				t.Fatalf("cut %d: x = %q %v, want wave2", cut, v, err)
			}
		case has(db2, "w1a"):
			if err != nil || string(v) != "wave1" {
				t.Fatalf("cut %d: x = %q %v, want wave1", cut, v, err)
			}
		default:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("cut %d: x = %q %v, want missing", cut, v, err)
			}
		}
		db2.wal.f.Close() // keep the on-disk bytes for the next cut
	}
}

// TestApplyAllSingleSync: a K-batch sequence pays one WAL fsync where K
// Apply calls pay K — the group-commit economics of the pipelined wave.
func TestApplyAllSingleSync(t *testing.T) {
	fo := &faultOps{}
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWrites: true, DisableAutoCompaction: true, FileOps: fo})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const k = 5
	seq := make([]*WriteBatch, k)
	for i := range seq {
		seq[i] = mkBatch(fmt.Sprintf("all%d", i), "v")
	}
	before := fo.walSyncs
	if err := db.ApplyAll(seq); err != nil {
		t.Fatal(err)
	}
	if got := fo.walSyncs - before; got != 1 {
		t.Fatalf("ApplyAll of %d batches paid %d syncs, want 1", k, got)
	}

	before = fo.walSyncs
	for i := 0; i < k; i++ {
		if err := db.Apply(mkBatch(fmt.Sprintf("one%d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := fo.walSyncs - before; got != k {
		t.Fatalf("%d Apply calls paid %d syncs, want %d", k, got, k)
	}
}

// TestApplyAllWALFaultNothingVisible: a WAL write or sync failure fails the
// whole sequence and installs nothing — the running process never shows a
// state the call reported as failed.
func TestApplyAllWALFaultNothingVisible(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*faultOps)
		// durable: the fault hit after the record bytes reached the file
		// (a sync fault), so reopening resolves the in-doubt records to
		// committed. A write fault leaves at most a torn prefix, which
		// replay discards.
		durable bool
	}{
		{name: "write", arm: func(f *faultOps) { f.failWALWriteAt = f.walWrites + 1 }},
		{name: "sync", arm: func(f *faultOps) { f.failWALSyncAt = f.walSyncs + 1 }, durable: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fo := &faultOps{}
			dir := t.TempDir()
			db, err := Open(dir, Options{SyncWrites: true, DisableAutoCompaction: true, FileOps: fo})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.ApplyAll([]*WriteBatch{mkBatch("pre", "1")}); err != nil {
				t.Fatal(err)
			}
			tc.arm(fo)
			err = db.ApplyAll([]*WriteBatch{mkBatch("a", "1"), mkBatch("b", "2")})
			if !errors.Is(err, errInjected) {
				t.Fatalf("err = %v, want injected", err)
			}
			for _, k := range []string{"a", "b"} {
				if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
					t.Fatalf("failed sequence installed %s: %v", k, err)
				}
			}
			// The failed records' LSNs are in doubt (their bytes may be on
			// disk); the log refuses to re-bind them and disables itself
			// until a reopen resolves the tail — appending past an in-doubt
			// record would let crash replay and a replication tail disagree
			// about what its LSN means.
			if err := db.ApplyAll([]*WriteBatch{mkBatch("after", "3")}); !errors.Is(err, ErrWALFailed) {
				t.Fatalf("append after WAL fault: %v, want ErrWALFailed", err)
			}
			db.Close()
			db2, err := Open(dir, Options{SyncWrites: true, DisableAutoCompaction: true, FileOps: fo})
			if err != nil {
				t.Fatalf("reopen after fault: %v", err)
			}
			defer db2.Close()
			for _, k := range []string{"a", "b"} {
				_, err := db2.Get([]byte(k))
				if tc.durable && err != nil {
					t.Fatalf("reopen lost in-doubt record %s that was on disk: %v", k, err)
				}
				if !tc.durable && !errors.Is(err, ErrNotFound) {
					t.Fatalf("reopen resurrected torn record %s: %v", k, err)
				}
			}
			// Reopen resolved the doubt; the store is serviceable again.
			if err := db2.ApplyAll([]*WriteBatch{mkBatch("after", "3")}); err != nil {
				t.Fatalf("append after reopen: %v", err)
			}
			if v, err := db2.Get([]byte("after")); err != nil || string(v) != "3" {
				t.Fatalf("after = %q %v", v, err)
			}
		})
	}
}

// TestApplyAllOversizeBatchRejectedUpFront: a batch over the WAL record cap
// must fail the sequence BEFORE any record reaches the buffered writer —
// otherwise the wave's earlier batches would sit valid in the buffer and
// become durable on the next flush, resurrecting a wave the caller was
// told failed.
func TestApplyAllOversizeBatchRejectedUpFront(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	var huge WriteBatch
	huge.Put([]byte("huge"), make([]byte, MaxRecordBytes))
	if err := db.ApplyAll([]*WriteBatch{mkBatch("small", "1"), &huge}); err == nil {
		t.Fatal("oversize batch accepted")
	}
	if _, err := db.Get([]byte("small")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed sequence installed small batch: %v", err)
	}
	// Nothing of the failed wave may survive later WAL activity + reopen.
	if err := db.Apply(mkBatch("later", "2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, k := range []string{"small", "huge"} {
		if _, err := db2.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("failed wave's %q resurrected after reopen: %v", k, err)
		}
	}
	if v, err := db2.Get([]byte("later")); err != nil || string(v) != "2" {
		t.Fatalf("later = %q %v", v, err)
	}
}
