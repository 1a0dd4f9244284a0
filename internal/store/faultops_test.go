package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// faultOps simulates filesystem failures on specific operations, in the
// style of a DirectIO test fake: each knob fails the Nth matching call
// (1-based) and passes the rest through to the real filesystem. Segment
// and WAL faults count separately, so a test can fail a WAL write without
// having to predict how many segment writes preceded it.
type faultOps struct {
	real osFileOps

	failCreateAt int // fail the Nth Create
	failWriteAt  int // fail the Nth Write on created segment files
	failSyncAt   int // fail the Nth Sync on created segment files
	failRenameAt int // fail the Nth Rename

	failWALWriteAt int // fail the Nth Write on the WAL
	failWALSyncAt  int // fail the Nth Sync on the WAL

	creates, writes, syncs, renames int
	walWrites, walSyncs             int
}

var errInjected = errors.New("injected fault")

func (f *faultOps) Create(name string) (SegFile, error) {
	f.creates++
	if f.creates == f.failCreateAt {
		return nil, fmt.Errorf("create %s: %w", name, errInjected)
	}
	file, err := f.real.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, file: file}, nil
}

func (f *faultOps) Rename(oldpath, newpath string) error {
	f.renames++
	if f.renames == f.failRenameAt {
		return fmt.Errorf("rename %s: %w", newpath, errInjected)
	}
	return f.real.Rename(oldpath, newpath)
}

func (f *faultOps) Remove(name string) error { return f.real.Remove(name) }

func (f *faultOps) OpenWAL(name string) (WALFile, error) {
	file, err := f.real.OpenWAL(name)
	if err != nil {
		return nil, err
	}
	return &faultWAL{f: f, WALFile: file}, nil
}

// faultWAL intercepts WAL writes and syncs; everything else passes through.
type faultWAL struct {
	f *faultOps
	WALFile
}

func (fw *faultWAL) Write(p []byte) (int, error) {
	fw.f.walWrites++
	if fw.f.walWrites == fw.f.failWALWriteAt {
		return 0, errInjected
	}
	return fw.WALFile.Write(p)
}

func (fw *faultWAL) Sync() error {
	fw.f.walSyncs++
	if fw.f.walSyncs == fw.f.failWALSyncAt {
		return errInjected
	}
	return fw.WALFile.Sync()
}

type faultFile struct {
	f    *faultOps
	file SegFile
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.f.writes++
	if ff.f.writes == ff.f.failWriteAt {
		return 0, errInjected
	}
	return ff.file.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.f.syncs++
	if ff.f.syncs == ff.f.failSyncAt {
		return errInjected
	}
	return ff.file.Sync()
}

func (ff *faultFile) Close() error { return ff.file.Close() }

// openFaulty opens a store whose segment writes go through a faultOps.
// Auto-compaction is off so fault counters stay deterministic.
func openFaulty(t *testing.T, opts Options) (*DB, *faultOps, string) {
	t.Helper()
	opts.DisableAutoCompaction = true
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	fo := &faultOps{}
	db.fops = fo
	t.Cleanup(func() {
		db.fops = osFileOps{} // let Close's flush succeed
		db.Close()
	})
	return db, fo, dir
}

func fillMemtable(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

// Each fault point of the segment-flush path: the flush must fail loudly,
// leave no half-written segment behind, keep the store serving reads, and —
// because the WAL still owns the data — survive a crash after the failure.
func TestSegmentFlushFaultInjection(t *testing.T) {
	cases := []struct {
		name string
		set  func(*faultOps)
	}{
		{"create", func(f *faultOps) { f.failCreateAt = 1 }},
		{"first write", func(f *faultOps) { f.failWriteAt = 1 }},
		// The segment writer buffers 256 KiB; with small records the magic,
		// records, index, bloom and tail all land in the first flush. The
		// second write is the CRC trailer.
		{"crc write", func(f *faultOps) { f.failWriteAt = 2 }},
		{"sync", func(f *faultOps) { f.failSyncAt = 1 }},
		{"rename", func(f *faultOps) { f.failRenameAt = 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, fo, dir := openFaulty(t, Options{})
			fillMemtable(t, db, 50)
			c.set(fo)

			if err := db.Flush(); !errors.Is(err, errInjected) {
				t.Fatalf("flush error = %v, want injected fault", err)
			}
			if db.SegmentCount() != 0 {
				t.Fatal("failed flush registered a segment")
			}
			leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
			if len(leftovers) != 0 {
				t.Fatalf("temp files left behind: %v", leftovers)
			}
			// Store still serves the data from the memtable.
			v, err := db.Get([]byte("k0007"))
			if err != nil || string(v) != "v7" {
				t.Fatalf("read after failed flush: %q %v", v, err)
			}
			// Retry with the fault cleared succeeds.
			*fo = faultOps{}
			if err := db.Flush(); err != nil {
				t.Fatalf("retry flush: %v", err)
			}
			if db.SegmentCount() != 1 {
				t.Fatalf("retry made %d segments", db.SegmentCount())
			}
		})
	}
}

// TestFailedFlushThenCrashLosesNothing is the durability half: a flush that
// dies on storage errors leaves the WAL intact, so a subsequent crash and
// reopen recovers every acknowledged write.
func TestFailedFlushThenCrashLosesNothing(t *testing.T) {
	db, fo, dir := openFaulty(t, Options{})
	fillMemtable(t, db, 50)
	fo.failWriteAt = 1
	if err := db.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("flush error = %v", err)
	}
	db.Sync()
	db.wal.f.Close() // crash

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, err := db2.Get([]byte(k))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s after crash: %q %v", k, v, err)
		}
	}
}

// TestBackgroundCompactionSurfacesFaults points the compactor at a failing
// filesystem and checks the failure is reported, the store keeps working,
// and the next healthy cycle recovers.
func TestBackgroundCompactionSurfacesFaults(t *testing.T) {
	db, fo, _ := openFaulty(t, Options{})
	// Build four small segments through the healthy path.
	for i := 0; i < 4; i++ {
		if err := db.Put([]byte(fmt.Sprintf("seg%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.opts.CompactMinRun = 2

	*fo = faultOps{failWriteAt: 1}
	if db.compactOnce() {
		t.Fatal("compactOnce claimed success under injected fault")
	}
	if err := db.CompactionError(); !errors.Is(err, errInjected) {
		t.Fatalf("CompactionError = %v, want injected", err)
	}
	if db.SegmentCount() != 4 {
		t.Fatalf("failed merge changed segment list: %d", db.SegmentCount())
	}

	*fo = faultOps{}
	if !db.compactOnce() {
		t.Fatal("healthy retry did not compact")
	}
	if err := db.CompactionError(); err != nil {
		t.Fatalf("CompactionError not cleared: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("seg%d", i))); err != nil {
			t.Fatalf("seg%d: %v", i, err)
		}
	}
}

// writeSegmentV1 emits the retired SPASEG01 format (no bloom block, 12-byte
// tail), which Open must refuse.
func writeSegmentV1(t *testing.T, path string, entries []entry) {
	t.Helper()
	h := crc32.New(castagnoli)
	var buf bytes.Buffer
	w := func(p []byte) {
		buf.Write(p)
		h.Write(p)
	}
	w([]byte("SPASEG01"))
	var offset int64
	var ibuf []byte
	var icount uint32
	for i, e := range entries {
		rec := appendRecord(nil, e)
		if i%indexStride == 0 {
			icount++
			ibuf = binary.AppendUvarint(ibuf, uint64(len(e.key)))
			ibuf = append(ibuf, e.key...)
			ibuf = binary.LittleEndian.AppendUint64(ibuf, uint64(offset))
		}
		w(rec)
		offset += int64(len(rec))
	}
	var iblk []byte
	iblk = binary.LittleEndian.AppendUint32(iblk, icount)
	iblk = append(iblk, ibuf...)
	w(iblk)
	var tail [12]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(offset))
	binary.LittleEndian.PutUint32(tail[8:12], uint32(len(entries)))
	w(tail[:])
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], h.Sum32())
	buf.Write(crcBuf[:])
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, ".dat") {
		t.Fatalf("v1 segment path %s will not be loaded by loadSegments", path)
	}
}
