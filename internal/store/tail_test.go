package store

import (
	"bytes"
	"fmt"
	"testing"
)

// referenceTail is the linear oracle TailLog must match: every retained
// record (sealed files in order, then the active-log mirror) with
// LSN >= from, the first record of each position winning, decoded.
func referenceTail(t *testing.T, db *DB, from uint64) []LogRecord {
	t.Helper()
	var all []logRec
	for _, s := range db.sealed {
		recs, err := readSealedRecords(s.path, 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, recs...)
	}
	all = append(all, db.activeRecs...)
	var out []LogRecord
	next := from
	for _, r := range all {
		if r.lsn < next {
			continue
		}
		rec, err := decodeWALRecord(r.payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
		next = r.lsn + 1
	}
	return out
}

// readThrough reads tail until it returns the record at position last.
func readThrough(t *testing.T, tail *LogTail, last uint64) []LogRecord {
	t.Helper()
	var out []LogRecord
	for len(out) == 0 || out[len(out)-1].LSN < last {
		rec, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

func sameRecords(t *testing.T, what string, got, want []LogRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.LSN != w.LSN || !bytes.Equal(g.Annotation, w.Annotation) || len(g.Entries) != len(w.Entries) {
			t.Fatalf("%s: record %d is lsn %d ann %q with %d entries, want lsn %d ann %q with %d",
				what, i, g.LSN, g.Annotation, len(g.Entries), w.LSN, w.Annotation, len(w.Entries))
		}
		for j := range w.Entries {
			ge, we := g.Entries[j], w.Entries[j]
			if !bytes.Equal(ge.Key, we.Key) || !bytes.Equal(ge.Value, we.Value) || ge.Tombstone != we.Tombstone {
				t.Fatalf("%s: record %d entry %d = %+v, want %+v", what, i, j, ge, we)
			}
		}
	}
}

// TestTailFromEveryPosition: for every position from the floor through the
// head, TailLog yields exactly the records a linear filter over the
// retained log yields — across restored records sharing one LSN, a seal
// that lands while a tail is partway through the active log, and a group
// commit that failed after its records had entered the active-log mirror.
func TestTailFromEveryPosition(t *testing.T) {
	fo := &faultOps{}
	db, err := Open(t.TempDir(), Options{FileOps: fo, SyncWrites: true, DisableAutoCompaction: true,
		MemtableBytes: 64 << 20, LogRetainBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// Three 1 MiB pairs restore as two records, both at LSN 5.
	const snapLSN = 5
	big := bytes.Repeat([]byte("s"), 1<<20)
	var pairs []LogEntry
	for i := 0; i < 3; i++ {
		pairs = append(pairs, LogEntry{Key: []byte(fmt.Sprintf("snap%d", i)), Value: big})
	}
	if err := db.RestoreSnapshot(pairs, snapLSN); err != nil {
		t.Fatal(err)
	}
	if n := len(db.activeRecs); n != 2 {
		t.Fatalf("restore wrote %d records, want 2 sharing one LSN", n)
	}
	write := func(i int) {
		t.Helper()
		var b WriteBatch
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
		if i%3 == 0 {
			b.Delete([]byte(fmt.Sprintf("k%03d", i-1)))
			b.SetAnnotation([]byte(fmt.Sprintf("wave %d", i)))
		}
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		write(i)
	}

	// A tail partway through the active log when the seal lands.
	mid, err := db.TailLog(db.LogFloor())
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	midRecs := readThrough(t, mid, snapLSN+3)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(db.sealed) != 1 {
		t.Fatalf("%d sealed files after the flush, want 1", len(db.sealed))
	}
	for i := 10; i < 20; i++ {
		write(i)
	}

	// A group commit whose sync fails after all three records entered the
	// mirror: none of them may reach a tail.
	head := db.AppliedLSN()
	fo.failWALSyncAt = fo.walSyncs + 1
	failed := make([]*WriteBatch, 3)
	for i := range failed {
		failed[i] = new(WriteBatch)
		failed[i].Put([]byte(fmt.Sprintf("lost%d", i)), []byte("x"))
	}
	if err := db.ApplyAll(failed); err == nil {
		t.Fatal("ApplyAll survived a failed sync")
	}
	if got := db.AppliedLSN(); got != head {
		t.Fatalf("AppliedLSN %d after a failed commit, want %d", got, head)
	}

	floor := db.LogFloor()
	if floor != snapLSN {
		t.Fatalf("floor %d, want %d", floor, snapLSN)
	}
	midRecs = append(midRecs, readThrough(t, mid, head)...)
	sameRecords(t, "tail across the seal", midRecs, referenceTail(t, db, floor))
	if n := mid.Buffered(); n != 0 {
		t.Fatalf("tail at the head still buffers %d records", n)
	}
	for from := floor; from <= head; from++ {
		tail, err := db.TailLog(from)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, fmt.Sprintf("TailLog(%d)", from), readThrough(t, tail, head), referenceTail(t, db, from))
		tail.Close()
	}
	if _, err := db.TailLog(floor - 1); err == nil {
		t.Fatalf("TailLog(%d) below the floor succeeded", floor-1)
	}
}

// BenchmarkTailNext times one refill-and-read at the head of an active log
// of n records: a binary search, so flat in n (a linear scan grows with it).
func BenchmarkTailNext(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("active=%d", n), func(b *testing.B) {
			db, err := Open(b.TempDir(), Options{DisableAutoCompaction: true, MemtableBytes: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			batches := make([]*WriteBatch, 0, 1000)
			for i := 0; i < n; i += cap(batches) {
				batches = batches[:0]
				for j := i; j < min(n, i+cap(batches)); j++ {
					wb := new(WriteBatch)
					wb.Put([]byte(fmt.Sprintf("k%07d", j)), []byte("value"))
					batches = append(batches, wb)
				}
				if err := db.ApplyAll(batches); err != nil {
					b.Fatal(err)
				}
			}
			head := db.AppliedLSN()
			b.ReportAllocs()
			for b.Loop() {
				tail, err := db.TailLog(head)
				if err != nil {
					b.Fatal(err)
				}
				if rec, err := tail.Next(); err != nil || rec.LSN != head {
					b.Fatalf("lsn %d, %v", rec.LSN, err)
				}
			}
		})
	}
}
