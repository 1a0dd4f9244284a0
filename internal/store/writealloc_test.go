//go:build !race

package store

import (
	"fmt"
	"path/filepath"
	"testing"
)

// The write path's exact allocation ceilings: the memtable, segment writes
// and merges, a reused WriteBatch's Apply, and the log tail's Next. The
// ceilings are the measured counts (go1.24, amd64); a change that brings
// back a per-key or per-record allocation fails here. testing.AllocsPerRun
// rounds down, so a slab refill every 128 keys counts as zero. The race
// detector changes allocation counts, so the file builds only without it.

func TestMemtablePutAllocs(t *testing.T) {
	const runs = 200
	keys := make([][]byte, runs+1)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user/%06d", i))
	}
	value := make([]byte, 300)
	m := newMemtable()
	next := 0
	newKey := func() {
		m.upsert(keys[next], value, false)
		next++
	}
	existing := func() { m.upsert(keys[7], value, false) }
	for _, c := range []struct {
		name    string
		f       func()
		ceiling float64
	}{
		{"new key", newKey, 0},
		{"existing key", existing, 0},
	} {
		got := testing.AllocsPerRun(runs, c.f)
		if got > c.ceiling {
			t.Errorf("memtable put, %s: %.1f allocs, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("memtable put, %s: %.1f allocs, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// sortedTestEntries returns n sorted entries, every fifth a tombstone.
func sortedTestEntries(n int, tag string) []entry {
	out := make([]entry, n)
	for i := range out {
		out[i] = entry{key: []byte(fmt.Sprintf("k%07d", i*2))}
		if i%5 == 4 {
			out[i].tombstone = true
		} else {
			out[i].value = []byte(fmt.Sprintf("%s-value-%07d", tag, i))
		}
	}
	return out
}

// TestSegmentWriteAllocs pins writeSegment and mergeSegments at a cost
// that does not grow with the entry count: the same ceiling holds for 64
// entries and for 4,096.
func TestSegmentWriteAllocs(t *testing.T) {
	dir := t.TempDir()
	const (
		writeCeiling = 24
		mergeCeiling = 6
	)
	for _, n := range []int{64, 4096} {
		entries := sortedTestEntries(n, "new")
		path := filepath.Join(dir, fmt.Sprintf("w-%d.dat", n))
		got := testing.AllocsPerRun(20, func() {
			if err := writeSegment(osFileOps{}, path, entries); err != nil {
				t.Fatal(err)
			}
		})
		if got > writeCeiling {
			t.Errorf("writeSegment, %d entries: %.1f allocs, ceiling %d", n, got, writeCeiling)
		} else {
			t.Logf("writeSegment, %d entries: %.1f allocs, ceiling %d", n, got, writeCeiling)
		}

		old := filepath.Join(dir, fmt.Sprintf("old-%d.dat", n))
		if err := writeSegment(osFileOps{}, old, sortedTestEntries(n, "old")); err != nil {
			t.Fatal(err)
		}
		segOld, err := openSegment(old, 1)
		if err != nil {
			t.Fatal(err)
		}
		segNew, err := openSegment(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		run := []*segment{segOld, segNew}
		got = testing.AllocsPerRun(20, func() {
			if _, err := mergeSegments(run, true); err != nil {
				t.Fatal(err)
			}
		})
		if got > mergeCeiling {
			t.Errorf("mergeSegments, 2 × %d entries: %.1f allocs, ceiling %d", n, got, mergeCeiling)
		} else {
			t.Logf("mergeSegments, 2 × %d entries: %.1f allocs, ceiling %d", n, got, mergeCeiling)
		}
	}
}

// TestApplyAllocs pins one Apply of a reused 8-entry batch on an unsynced
// store: the batch refills its arena without allocating, the memtable
// keeps slices of the WAL record, and the commit pays a constant four
// allocations, not a few per entry.
func TestApplyAllocs(t *testing.T) {
	db, err := Open(t.TempDir(), Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("sum/user%04d", i))
	}
	value := make([]byte, 600)
	var b WriteBatch
	apply := func() {
		b.Reset()
		for _, k := range keys {
			b.Put(k, value)
		}
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 4
	got := testing.AllocsPerRun(200, apply)
	if got > ceiling {
		t.Errorf("Apply, reused 8-entry batch: %.1f allocs, ceiling %d", got, ceiling)
	} else {
		t.Logf("Apply, reused 8-entry batch: %.1f allocs, ceiling %d", got, ceiling)
	}
}

// TestTailNextAllocs pins one LogTail.Next at two allocations: the
// caller-owned payload copy and the record's Entries. The refill that
// positions the tail in the active log is a capped window of it, not a
// copy, so it allocates nothing.
func TestTailNextAllocs(t *testing.T) {
	db, err := Open(t.TempDir(), Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	const runs = 200
	var b WriteBatch
	for i := 0; i <= runs; i++ {
		b.Reset()
		b.Put([]byte(fmt.Sprintf("sum/user%04d", i)), make([]byte, 600))
		b.Put([]byte(fmt.Sprintf("aux/user%04d", i)), []byte("x"))
		b.SetAnnotation([]byte("events"))
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
	}
	tail, err := db.TailLog(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	next := func() {
		if rec, err := tail.Next(); err != nil || len(rec.Entries) != 2 {
			t.Fatalf("Next: %d entries, %v", len(rec.Entries), err)
		}
	}
	const ceiling = 2
	if got := testing.AllocsPerRun(runs, next); got > ceiling {
		t.Errorf("LogTail.Next, 2-entry record: %.1f allocs, ceiling %d", got, ceiling)
	} else {
		t.Logf("LogTail.Next, 2-entry record: %.1f allocs, ceiling %d", got, ceiling)
	}
}
