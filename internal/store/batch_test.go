package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteBatchBasic(t *testing.T) {
	db, _ := openTemp(t, Options{})
	var b WriteBatch
	b.Put([]byte("u1"), []byte("alice"))
	b.Put([]byte("u2"), []byte("bob"))
	b.Delete([]byte("u3"))
	if b.Len() != 3 {
		t.Fatalf("Len %d", b.Len())
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("u1"))
	if err != nil || string(v) != "alice" {
		t.Fatalf("u1: %q %v", v, err)
	}
	v, err = db.Get([]byte("u2"))
	if err != nil || string(v) != "bob" {
		t.Fatalf("u2: %q %v", v, err)
	}
	if _, err := db.Get([]byte("u3")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("u3: %v", err)
	}
}

func TestWriteBatchCopiesSlices(t *testing.T) {
	db, _ := openTemp(t, Options{})
	key := []byte("k")
	val := []byte("before")
	var b WriteBatch
	b.Put(key, val)
	copy(val, "AFTER!")
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "before" {
		t.Fatalf("caller mutation leaked into batch: %q %v", v, err)
	}
}

func TestWriteBatchEmptyAndReset(t *testing.T) {
	db, _ := openTemp(t, Options{})
	var b WriteBatch
	if err := db.Apply(&b); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	b.Put([]byte("a"), []byte("1"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if b.Len() != 0 || b.Size() != 0 {
		t.Fatalf("after Reset: len %d size %d", b.Len(), b.Size())
	}
	b.Put([]byte("b"), []byte("2"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if _, err := db.Get([]byte(k)); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
}

func TestWriteBatchRejectsEmptyKey(t *testing.T) {
	db, _ := openTemp(t, Options{})
	var b WriteBatch
	b.Put([]byte("ok"), []byte("1"))
	b.Put(nil, []byte("2"))
	if err := db.Apply(&b); err == nil {
		t.Fatal("empty key accepted")
	}
	// The batch must have been rejected wholesale, not partially applied.
	if _, err := db.Get([]byte("ok")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("partial batch applied: %v", err)
	}
}

func TestWriteBatchOverwriteWithinBatch(t *testing.T) {
	db, _ := openTemp(t, Options{})
	var b WriteBatch
	b.Put([]byte("k"), []byte("v1"))
	b.Delete([]byte("k"))
	b.Put([]byte("k"), []byte("v2"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "v2" {
		t.Fatalf("last-write-wins violated: %q %v", v, err)
	}
}

func TestWriteBatchClosedDB(t *testing.T) {
	db, _ := openTemp(t, Options{})
	db.Close()
	var b WriteBatch
	b.Put([]byte("k"), []byte("v"))
	if err := db.Apply(&b); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
}

func TestWriteBatchTriggersFlush(t *testing.T) {
	db, _ := openTemp(t, Options{MemtableBytes: 1 << 10, DisableAutoCompaction: true})
	var b WriteBatch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte("v"), 64))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if db.SegmentCount() == 0 {
		t.Fatal("oversized batch never flushed the memtable")
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("k%03d: %v", i, err)
		}
	}
}

// TestBatchRecovery commits two batches, crashes (abandons the handle), and
// asserts both replay intact.
func TestBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	var b WriteBatch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	b.Delete([]byte("a"))
	b.Put([]byte("c"), []byte("3"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	db.Sync()
	db.wal.f.Close() // crash: no Close, no Flush

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatal("tombstone from second batch lost")
	}
	for k, want := range map[string]string{"b": "2", "c": "3"} {
		v, err := db2.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("%s: %q %v", k, v, err)
		}
	}
}

// TestBatchTornTailDiscardedAtomically kills a WriteBatch mid-WAL-append by
// truncating the log at every possible byte boundary inside the batch
// record, reopens, and asserts all-or-nothing: the committed first batch is
// always intact and the torn second batch never applies partially.
func TestBatchTornTailDiscardedAtomically(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	var b WriteBatch
	b.Put([]byte("committed1"), []byte("x"))
	b.Put([]byte("committed2"), []byte("y"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	db.Sync()
	committedLen := walFileLen(t, dir)

	b.Reset()
	b.Put([]byte("torn1"), []byte("1"))
	b.Delete([]byte("committed1"))
	b.Put([]byte("torn2"), []byte("2"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	db.Sync()
	db.wal.f.Close()

	walPath := filepath.Join(dir, "wal.log")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) <= committedLen {
		t.Fatalf("second batch added no bytes (%d <= %d)", len(full), committedLen)
	}

	for cut := committedLen; cut < int64(len(full)); cut++ {
		if err := os.WriteFile(walPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir, Options{DisableAutoCompaction: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Committed batch: always there, including the key the torn batch
		// tried to delete.
		for _, k := range []string{"committed1", "committed2"} {
			if _, err := db2.Get([]byte(k)); err != nil {
				t.Fatalf("cut %d: committed key %s lost: %v", cut, k, err)
			}
		}
		// Torn batch: never partially applied.
		_, err1 := db2.Get([]byte("torn1"))
		_, err2 := db2.Get([]byte("torn2"))
		if !errors.Is(err1, ErrNotFound) || !errors.Is(err2, ErrNotFound) {
			t.Fatalf("cut %d: torn batch partially applied: %v %v", cut, err1, err2)
		}
		db2.wal.f.Close() // keep the on-disk log bytes for the next cut
	}
}

func walFileLen(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestBatchCorruptMiddleStopsReplay flips a byte inside a committed batch
// record and checks replay stops there (prefix survives, suffix discarded)
// rather than erroring out.
func TestBatchCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("first"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	db.Sync()
	firstLen := walFileLen(t, dir)
	var b WriteBatch
	b.Put([]byte("second"), []byte("gone"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	db.Sync()
	db.wal.f.Close()

	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[firstLen+9] ^= 0xff // inside the batch record's payload
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("first")); err != nil {
		t.Fatalf("prefix lost: %v", err)
	}
	if _, err := db2.Get([]byte("second")); !errors.Is(err, ErrNotFound) {
		t.Fatal("corrupt batch applied")
	}
}

func TestWALBatchRoundTrip(t *testing.T) {
	entries := []walEntry{
		{key: []byte("a"), value: []byte("1")},
		{key: []byte("bb"), tombstone: true},
		{key: []byte("ccc"), value: bytes.Repeat([]byte("z"), 300)},
	}
	annotation := []byte("wave 7")
	rec, err := decodeWALRecord(encodeLSNRecord(42, annotation, entries))
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 42 || !bytes.Equal(rec.Annotation, annotation) {
		t.Fatalf("decoded lsn %d annotation %q", rec.LSN, rec.Annotation)
	}
	got := rec.Entries
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries", len(got))
	}
	for i := range entries {
		if !bytes.Equal(got[i].Key, entries[i].key) ||
			!bytes.Equal(got[i].Value, entries[i].value) ||
			got[i].Tombstone != entries[i].tombstone {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, got[i], entries[i])
		}
	}
}

// walEntries converts a decoded record's entries back to the encoder's form.
func walEntries(rec LogRecord) []walEntry {
	out := make([]walEntry, len(rec.Entries))
	for i, e := range rec.Entries {
		out[i] = walEntry{key: e.Key, value: e.Value, tombstone: e.Tombstone}
	}
	return out
}

// FuzzDecodeWALRecord: decodeWALRecord never panics on an arbitrary
// payload, and whatever it accepts re-encodes through encodeLSNRecord to a
// record with the same LSN, annotation and entries.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opBatchLSN})
	f.Add(encodeLSNRecord(1, nil, nil))
	f.Add(encodeLSNRecord(7, []byte("wave"), []walEntry{
		{key: []byte("a"), value: []byte("1")},
		{key: []byte("bb"), tombstone: true},
		{key: []byte("c"), value: nil},
	}))
	f.Add(appendWALSubEntry(nil, walEntry{key: []byte("a"), value: []byte("1")}))
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodeWALRecord(p)
		if err != nil {
			return
		}
		again, err := decodeWALRecord(encodeLSNRecord(rec.LSN, rec.Annotation, walEntries(rec)))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if again.LSN != rec.LSN || !bytes.Equal(again.Annotation, rec.Annotation) {
			t.Fatalf("round trip changed lsn/annotation: %d %q -> %d %q", rec.LSN, rec.Annotation, again.LSN, again.Annotation)
		}
		if len(again.Entries) != len(rec.Entries) {
			t.Fatalf("round trip changed entry count: %d -> %d", len(rec.Entries), len(again.Entries))
		}
		for i, e := range rec.Entries {
			g := again.Entries[i]
			if !bytes.Equal(g.Key, e.Key) || !bytes.Equal(g.Value, e.Value) || g.Tombstone != e.Tombstone {
				t.Fatalf("round trip changed entry %d: %+v -> %+v", i, e, g)
			}
		}
	})
}
