package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeRawWALRecord appends one CRC-framed record with the given payload to
// the file, using the same framing writeRecord produces.
func writeRawWALRecord(t *testing.T, f *os.File, payload []byte) {
	t.Helper()
	var header [8]byte
	binary.LittleEndian.PutUint32(header[0:4], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(header[4:8], uint32(len(payload)))
	if _, err := f.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
}

// legacyPutPayload builds a pre-LSN (rev 1) single-put record payload.
func legacyPutPayload(key, value []byte) []byte {
	buf := []byte{opPut}
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	return append(buf, value...)
}

// legacyBatchPayload builds a pre-LSN (rev 1) opBatch record payload.
func legacyBatchPayload(entries []walEntry) []byte {
	buf := []byte{opBatch}
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = appendWALSubEntry(buf, e)
	}
	return buf
}

func TestAppliedLSNMonotone(t *testing.T) {
	db, dir := openTemp(t, Options{})
	if got := db.AppliedLSN(); got != 0 {
		t.Fatalf("fresh store AppliedLSN = %d, want 0", got)
	}
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	b := &WriteBatch{}
	b.Put([]byte("b"), []byte("2"))
	b.Put([]byte("c"), []byte("3"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got := db.AppliedLSN(); got != 3 {
		t.Fatalf("AppliedLSN = %d, want 3 (put, delete, batch)", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.AppliedLSN(); got != 3 {
		t.Fatalf("AppliedLSN after reopen = %d, want 3", got)
	}
	if err := db2.Put([]byte("d"), []byte("4")); err != nil {
		t.Fatal(err)
	}
	if got := db2.AppliedLSN(); got != 4 {
		t.Fatalf("AppliedLSN after reopen+put = %d, want 4", got)
	}
}

func TestApplyAllAssignsSequentialLSNs(t *testing.T) {
	db, _ := openTemp(t, Options{})
	var batches []*WriteBatch
	for i := 0; i < 3; i++ {
		b := &WriteBatch{}
		b.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
		batches = append(batches, b)
	}
	if err := db.ApplyAll(batches); err != nil {
		t.Fatal(err)
	}
	if got := db.AppliedLSN(); got != 3 {
		t.Fatalf("AppliedLSN = %d, want 3", got)
	}
	tail, err := db.TailLog(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for i := 0; i < 3; i++ {
		rec, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
		if len(rec.Entries) != 1 || string(rec.Entries[0].Key) != fmt.Sprintf("k%d", i) {
			t.Fatalf("record %d entries = %+v", i, rec.Entries)
		}
	}
}

func TestLegacyLogMigration(t *testing.T) {
	dir := t.TempDir()
	// Hand-craft a rev-1 log: two single-op records and one opBatch group,
	// exactly what a pre-replication build would have left behind.
	f, err := os.Create(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	writeRawWALRecord(t, f, legacyPutPayload([]byte("a"), []byte("1")))
	writeRawWALRecord(t, f, legacyPutPayload([]byte("b"), []byte("2")))
	writeRawWALRecord(t, f, legacyBatchPayload([]walEntry{
		{key: []byte("c"), value: []byte("3")},
		{key: []byte("a"), tombstone: true},
	}))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.AppliedLSN(); got != 3 {
		t.Fatalf("migrated AppliedLSN = %d, want 3", got)
	}
	if _, err := db.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstoned key survived migration: %v", err)
	}
	for k, want := range map[string]string{"b": "2", "c": "3"} {
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%q) = %q, %v", k, v, err)
		}
	}
	// Open normalizes the file in place: every record on disk is now rev 2,
	// so a tail can stream the pre-migration history with assigned LSNs.
	tail, err := db.TailLog(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	var lsns []uint64
	for i := 0; i < 3; i++ {
		rec, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, rec.LSN)
	}
	if lsns[0] != 1 || lsns[1] != 2 || lsns[2] != 3 {
		t.Fatalf("migrated LSNs = %v", lsns)
	}
	// No stray migrate temp file once Open returns.
	if _, err := os.Stat(filepath.Join(dir, "wal.log.migrate")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("migrate temp file left behind: %v", err)
	}
	// A second reopen must see the same sequence (migration is idempotent).
	if err := db.Put([]byte("d"), []byte("4")); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.AppliedLSN(); got != 4 {
		t.Fatalf("AppliedLSN after migration+reopen = %d, want 4", got)
	}
}

func TestWALDiscardedBytesSurfaced(t *testing.T) {
	db, dir := openTemp(t, Options{})
	for i := 0; i < 4; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("x"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Torn write: append a valid-looking header plus a short payload.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x20, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st := db2.Stats()
	if st.WALDiscardedBytes != int64(len(garbage)) {
		t.Fatalf("WALDiscardedBytes = %d, want %d", st.WALDiscardedBytes, len(garbage))
	}
	if st.AppliedLSN != 4 {
		t.Fatalf("AppliedLSN = %d, want 4 (valid prefix intact)", st.AppliedLSN)
	}
	// The counter describes the open, not history: a clean reopen resets it.
	db2.Close()
	db3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := db3.Stats().WALDiscardedBytes; got != 0 {
		t.Fatalf("WALDiscardedBytes after clean reopen = %d, want 0", got)
	}
}

func TestTailLogLiveStreaming(t *testing.T) {
	db, _ := openTemp(t, Options{})
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	tail, err := db.TailLog(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	rec, err := tail.Next()
	if err != nil || rec.LSN != 1 {
		t.Fatalf("Next = %+v, %v", rec, err)
	}

	// Next must block until a commit lands, then deliver it.
	type result struct {
		rec LogRecord
		err error
	}
	got := make(chan result, 1)
	go func() {
		r, err := tail.Next()
		got <- result{r, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("Next returned before commit: %+v, %v", r.rec, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	b := &WriteBatch{}
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	b.SetAnnotation([]byte("wave-meta"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.rec.LSN != 2 {
			t.Fatalf("live record LSN = %d, want 2", r.rec.LSN)
		}
		if string(r.rec.Annotation) != "wave-meta" {
			t.Fatalf("annotation = %q", r.rec.Annotation)
		}
		if len(r.rec.Entries) != 2 || !r.rec.Entries[1].Tombstone {
			t.Fatalf("entries = %+v", r.rec.Entries)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not wake on commit")
	}
}

func TestTailLogCloseUnblocks(t *testing.T) {
	db, _ := openTemp(t, Options{})
	tail, err := db.TailLog(1)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := tail.Next()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tail.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrTailClosed) {
			t.Fatalf("Next after Close = %v, want ErrTailClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Next")
	}
}

func TestTailLogAcrossSealedHistory(t *testing.T) {
	// Tiny memtable so every few writes seal the WAL into history; a tail
	// from 1 must stitch sealed files and the active log into one stream.
	db, _ := openTemp(t, Options{MemtableBytes: 256, LogRetainBytes: 1 << 20})
	const n = 24
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte("v"), 48)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().WALSealedFiles == 0 {
		t.Fatal("expected at least one sealed WAL file")
	}
	tail, err := db.TailLog(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for i := 0; i < n; i++ {
		rec, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
		if want := fmt.Sprintf("k%02d", i); string(rec.Entries[0].Key) != want {
			t.Fatalf("record %d key = %q, want %q", i, rec.Entries[0].Key, want)
		}
	}
}

func TestTailLogSurvivesReopen(t *testing.T) {
	// Sealed history is on disk: a reopened store can still serve the full
	// tail, which is what lets a follower resume after a leader restart.
	db, dir := openTemp(t, Options{MemtableBytes: 256})
	const n = 16
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte("v"), 48)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	db2, err := Open(dir, Options{MemtableBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.AppliedLSN(); got != n {
		t.Fatalf("AppliedLSN after reopen = %d, want %d", got, n)
	}
	if floor := db2.LogFloor(); floor != 1 {
		t.Fatalf("LogFloor after reopen = %d, want 1", floor)
	}
	tail, err := db2.TailLog(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for i := 0; i < n; i++ {
		rec, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
}

func TestLogRetentionCompactsFloor(t *testing.T) {
	// A 1-byte budget prunes every sealed file but the newest; tails from
	// position 1 must then fail with ErrLogCompacted, and the floor must be
	// consistent between LogFloor, Stats, and TailLog's acceptance.
	db, _ := openTemp(t, Options{MemtableBytes: 256, LogRetainBytes: 1})
	for i := 0; i < 32; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte("v"), 48)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.WALSealedFiles != 1 {
		t.Fatalf("WALSealedFiles = %d, want 1 (all but newest pruned)", st.WALSealedFiles)
	}
	floor := db.LogFloor()
	if floor <= 1 {
		t.Fatalf("LogFloor = %d, want > 1 after pruning", floor)
	}
	if st.LogFloorLSN != floor {
		t.Fatalf("Stats.LogFloorLSN = %d, LogFloor = %d", st.LogFloorLSN, floor)
	}
	if _, err := db.TailLog(1); !errors.Is(err, ErrLogCompacted) {
		t.Fatalf("TailLog(1) = %v, want ErrLogCompacted", err)
	}
	tail, err := db.TailLog(floor)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	rec, err := tail.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != floor {
		t.Fatalf("first record from floor = %d, want %d", rec.LSN, floor)
	}
}

func TestSnapshotRestoreAndReplicatedApply(t *testing.T) {
	leader, _ := openTemp(t, Options{})
	for i := 0; i < 10; i++ {
		if err := leader.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Delete([]byte("k03")); err != nil {
		t.Fatal(err)
	}

	pairs, snapLSN, err := leader.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapLSN != leader.AppliedLSN() {
		t.Fatalf("SnapshotLSN = %d, AppliedLSN = %d", snapLSN, leader.AppliedLSN())
	}
	for _, p := range pairs {
		if string(p.Key) == "k03" {
			t.Fatal("tombstoned key exported in snapshot")
		}
	}

	followerDir := t.TempDir()
	follower, err := Open(followerDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.RestoreSnapshot(pairs, snapLSN); err != nil {
		t.Fatal(err)
	}
	if got := follower.AppliedLSN(); got != snapLSN {
		t.Fatalf("follower AppliedLSN = %d, want %d", got, snapLSN)
	}

	// Writes past the snapshot ship through the tail and apply with the
	// leader's LSNs.
	b := &WriteBatch{}
	b.Put([]byte("k10"), []byte("v10"))
	b.Delete([]byte("k00"))
	b.SetAnnotation([]byte("post-snap"))
	if err := leader.Apply(b); err != nil {
		t.Fatal(err)
	}
	tail, err := leader.TailLog(snapLSN + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	rec, err := tail.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Annotation) != "post-snap" {
		t.Fatalf("shipped annotation = %q", rec.Annotation)
	}
	// A gap must be rejected before the contiguous record lands.
	if err := follower.ApplyReplicated([]LogRecord{{LSN: rec.LSN + 1, Entries: rec.Entries}}); err == nil {
		t.Fatal("ApplyReplicated accepted a gapped LSN")
	}
	if err := follower.ApplyReplicated([]LogRecord{rec}); err != nil {
		t.Fatal(err)
	}
	if got := follower.AppliedLSN(); got != rec.LSN {
		t.Fatalf("follower AppliedLSN = %d, want %d", got, rec.LSN)
	}
	// Replaying the same record again must also be rejected (idempotence is
	// the caller's job; the store enforces exact contiguity).
	if err := follower.ApplyReplicated([]LogRecord{rec}); err == nil {
		t.Fatal("ApplyReplicated accepted a duplicate LSN")
	}

	assertConverged(t, leader, follower)

	// A follower restart recovers the replicated state from its own log.
	follower.Close()
	follower2, err := Open(followerDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower2.Close()
	if got := follower2.AppliedLSN(); got != rec.LSN {
		t.Fatalf("follower AppliedLSN after reopen = %d, want %d", got, rec.LSN)
	}
	assertConverged(t, leader, follower2)
}

// replRun builds a run of n shipped records starting at LSN from. Each
// record puts the marker keys "r<lsn>" and "t<lsn>" and rewrites the shared
// key "x"; every record after the first deletes the previous record's "t"
// key — so a run mixes puts, overwrites and tombstones.
func replRun(from uint64, n int) []LogRecord {
	recs := make([]LogRecord, n)
	for i := range recs {
		lsn := from + uint64(i)
		entries := []LogEntry{
			{Key: []byte(fmt.Sprintf("r%d", lsn)), Value: []byte("1")},
			{Key: []byte(fmt.Sprintf("t%d", lsn)), Value: []byte("1")},
			{Key: []byte("x"), Value: []byte(fmt.Sprintf("v%d", lsn))},
		}
		if i > 0 {
			entries = append(entries, LogEntry{Key: []byte(fmt.Sprintf("t%d", lsn-1)), Tombstone: true})
		}
		recs[i] = LogRecord{LSN: lsn, Annotation: []byte(fmt.Sprintf("a%d", lsn)), Entries: entries}
	}
	return recs
}

// assertNothingCommitted checks that a refused or failed run left no trace
// in the running store: position, memtable, and shippable history.
func assertNothingCommitted(t *testing.T, db *DB, applied uint64, run []LogRecord) {
	t.Helper()
	if got := db.AppliedLSN(); got != applied {
		t.Fatalf("AppliedLSN = %d, want %d", got, applied)
	}
	for _, r := range run {
		if _, err := db.Get([]byte(fmt.Sprintf("r%d", r.LSN))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("record %d visible after a failed run: %v", r.LSN, err)
		}
	}
	db.mu.RLock()
	tailed := len(db.activeRecs)
	db.mu.RUnlock()
	if tailed != int(applied) {
		t.Fatalf("%d records in the shippable history, want %d", tailed, applied)
	}
}

// TestApplyReplicatedRunIsOneGroup: a contiguous run commits with one WAL
// sync, installs every record in order, and tails and recovers record by
// record; a run with a gap in the middle is refused whole, before any byte
// reaches the WAL.
func TestApplyReplicatedRunIsOneGroup(t *testing.T) {
	fo := &faultOps{}
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWrites: true, DisableAutoCompaction: true, FileOps: fo})
	if err != nil {
		t.Fatal(err)
	}
	run := replRun(1, 5)
	gapped := []LogRecord{run[0], run[1], run[3]}
	writes := fo.walWrites
	if err := db.ApplyReplicated(gapped); err == nil {
		t.Fatal("run with a gap in the middle accepted")
	}
	assertNothingCommitted(t, db, 0, run)
	if fo.walWrites != writes || db.wal.w.Buffered() != 0 {
		t.Fatalf("refused run reached the WAL: %d writes, %d bytes buffered", fo.walWrites-writes, db.wal.w.Buffered())
	}

	syncs := fo.walSyncs
	if err := db.ApplyReplicated(run); err != nil {
		t.Fatal(err)
	}
	if got := fo.walSyncs - syncs; got != 1 {
		t.Fatalf("run of %d records paid %d syncs, want 1", len(run), got)
	}
	check := func(d *DB, what string) {
		t.Helper()
		if got := d.AppliedLSN(); got != 5 {
			t.Fatalf("%s: AppliedLSN = %d, want 5", what, got)
		}
		if v, err := d.Get([]byte("x")); err != nil || string(v) != "v5" {
			t.Fatalf("%s: x = %q %v, want the last record's v5", what, v, err)
		}
		for lsn := 1; lsn <= 5; lsn++ {
			if _, err := d.Get([]byte(fmt.Sprintf("r%d", lsn))); err != nil {
				t.Fatalf("%s: r%d: %v", what, lsn, err)
			}
			_, err := d.Get([]byte(fmt.Sprintf("t%d", lsn)))
			if live := lsn == 5; live != (err == nil) {
				t.Fatalf("%s: t%d live=%v: %v", what, lsn, live, err)
			}
		}
		tail, err := d.TailLog(1)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		for _, want := range run {
			rec, err := tail.Next()
			if err != nil {
				t.Fatal(err)
			}
			if rec.LSN != want.LSN || string(rec.Annotation) != string(want.Annotation) || len(rec.Entries) != len(want.Entries) {
				t.Fatalf("%s: tailed %d %q (%d entries), want %d %q (%d)", what,
					rec.LSN, rec.Annotation, len(rec.Entries), want.LSN, want.Annotation, len(want.Entries))
			}
		}
	}
	check(db, "live")
	// A run must also extend the position, not just be contiguous in itself.
	if err := db.ApplyReplicated(replRun(7, 2)); err == nil {
		t.Fatal("run past a gap after the applied position accepted")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{SyncWrites: true, DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "reopened")
}

// TestApplyReplicatedSyncFaultInstallsNothing: when the run's one sync
// fails, no record of it is installed or shipped, and the log disables
// itself until reopen, exactly as for a failed ApplyAll.
func TestApplyReplicatedSyncFaultInstallsNothing(t *testing.T) {
	fo := &faultOps{}
	db, err := Open(t.TempDir(), Options{SyncWrites: true, DisableAutoCompaction: true, FileOps: fo})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ApplyReplicated(replRun(1, 1)); err != nil {
		t.Fatal(err)
	}
	fo.failWALSyncAt = fo.walSyncs + 1
	run := replRun(2, 4)
	if err := db.ApplyReplicated(run); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	assertNothingCommitted(t, db, 1, run)
	if err := db.ApplyReplicated(run); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("apply after a sync fault: %v, want ErrWALFailed", err)
	}
}

// TestApplyReplicatedCrashPrefix: a crash at any byte of a 5-record run's
// WAL bytes recovers a prefix of the run — record i+1 never without record
// i, and the shared key always holds the newest recovered record's value.
func TestApplyReplicatedCrashPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyReplicated(replRun(1, 5)); err != nil {
		t.Fatal(err)
	}
	db.Sync()
	db.wal.f.Close() // crash: no Close, no Flush

	walPath := filepath.Join(dir, "wal.log")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(walPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir, Options{DisableAutoCompaction: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		applied := db2.AppliedLSN()
		for lsn := uint64(1); lsn <= 5; lsn++ {
			_, err := db2.Get([]byte(fmt.Sprintf("r%d", lsn)))
			if (lsn <= applied) != (err == nil) {
				t.Fatalf("cut %d: recovered through %d, r%d: %v — not a prefix", cut, applied, lsn, err)
			}
		}
		v, err := db2.Get([]byte("x"))
		if applied == 0 && !errors.Is(err, ErrNotFound) || applied > 0 && string(v) != fmt.Sprintf("v%d", applied) {
			t.Fatalf("cut %d: recovered through %d, x = %q %v", cut, applied, v, err)
		}
		db2.wal.f.Close() // keep the on-disk bytes for the next cut
	}
}

// assertConverged checks the two stores hold byte-identical live key spaces.
func assertConverged(t *testing.T, a, b *DB) {
	t.Helper()
	ap, alsn, err := a.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	bp, blsn, err := b.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if alsn != blsn {
		t.Fatalf("snapshot LSNs diverge: %d vs %d", alsn, blsn)
	}
	if len(ap) != len(bp) {
		t.Fatalf("key counts diverge: %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if !bytes.Equal(ap[i].Key, bp[i].Key) || !bytes.Equal(ap[i].Value, bp[i].Value) {
			t.Fatalf("pair %d diverges: %q=%q vs %q=%q", i, ap[i].Key, ap[i].Value, bp[i].Key, bp[i].Value)
		}
	}
}

func TestRestoreSnapshotRejectsRewind(t *testing.T) {
	db, _ := openTemp(t, Options{})
	for i := 0; i < 5; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	err := db.RestoreSnapshot([]LogEntry{{Key: []byte("x"), Value: []byte("y")}}, 2)
	if err == nil {
		t.Fatal("RestoreSnapshot accepted a snapshot behind the applied LSN")
	}
}

func TestRestoreSnapshotChunksLargeState(t *testing.T) {
	// Enough bytes to force several restoreChunkBytes-sized records; the
	// restore must still land every pair and a reopen must recover them.
	src, _ := openTemp(t, Options{})
	val := bytes.Repeat([]byte("x"), 64<<10)
	const n = 70 // ~4.4 MiB > 2 chunks
	for i := 0; i < n; i++ {
		if err := src.Put([]byte(fmt.Sprintf("big%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	pairs, snapLSN, err := src.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	dstDir := t.TempDir()
	dst, err := Open(dstDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreSnapshot(pairs, snapLSN); err != nil {
		t.Fatal(err)
	}
	dst.Close()
	dst2, err := Open(dstDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst2.Close()
	if got := dst2.AppliedLSN(); got != snapLSN {
		t.Fatalf("AppliedLSN after restore+reopen = %d, want %d", got, snapLSN)
	}
	for i := 0; i < n; i++ {
		v, err := dst2.Get([]byte(fmt.Sprintf("big%03d", i)))
		if err != nil || !bytes.Equal(v, val) {
			t.Fatalf("restored key big%03d: len=%d err=%v", i, len(v), err)
		}
	}
}
