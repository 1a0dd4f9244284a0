// Package store implements the embedded key-value store that persists Smart
// User Models and campaign state. The paper's deployment keeps profiles for
// 3,162,069 users in a commercial customer database; this reproduction
// provides the same durability contract with a small log-structured engine:
//
//   - every mutation is appended to a write-ahead log (CRC32-framed) before it
//     is acknowledged,
//   - recent data lives in a skiplist memtable with ordered iteration,
//   - when the memtable exceeds a threshold it is flushed to an immutable
//     sorted segment file,
//   - reads consult the memtable first, then segments newest-to-oldest,
//   - Compact merges all segments (dropping tombstones and shadowed
//     versions) into one.
//
// The engine is deliberately single-writer/multi-reader: SPA's ingest loop is
// a single pre-processor pipeline, and campaign scoring only reads.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrNotFound is returned by Get when the key does not exist (or was
// deleted).
var ErrNotFound = errors.New("store: key not found")

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("store: database closed")

// Options tune the engine. Zero values select defaults.
type Options struct {
	// MemtableBytes is the approximate memtable size that triggers a flush
	// to a segment file. Default 4 MiB.
	MemtableBytes int
	// SyncWrites fsyncs the WAL after every mutation. Durable but slow;
	// experiments leave it off and rely on explicit Sync at checkpoints.
	SyncWrites bool

	// DisableAutoCompaction turns the background compactor off; segments
	// then only merge through explicit Compact calls.
	DisableAutoCompaction bool
	// CompactMinRun is how many similar-sized trailing segments trigger a
	// background merge. Default 4.
	CompactMinRun int
	// CompactRatio bounds the size skew inside one tier: an older segment
	// joins the candidate run while its size is at most CompactRatio times
	// the bytes of the newer run members combined. Default 2.0.
	CompactRatio float64
	// CompactInterval is the idle poll period of the background compactor
	// (flushes also wake it immediately). Default 500 ms.
	CompactInterval time.Duration

	// LogRetainBytes budgets the sealed WAL history kept for replication
	// (log.go): after a memtable flush the old log is sealed and retained,
	// and the oldest sealed files are pruned once their total exceeds this.
	// The newest sealed file always survives. Default 64 MiB.
	LogRetainBytes int64

	// FileOps substitutes the filesystem seam (segment files and WAL).
	// Nil selects the os package. It exists for fault-injection tests —
	// including callers outside this package exercising their own
	// store-failure paths; production leaves it nil.
	FileOps FileOps
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.CompactMinRun <= 1 {
		o.CompactMinRun = 4
	}
	if o.CompactRatio <= 0 {
		o.CompactRatio = 2.0
	}
	if o.CompactInterval <= 0 {
		o.CompactInterval = 500 * time.Millisecond
	}
	if o.LogRetainBytes <= 0 {
		o.LogRetainBytes = 64 << 20
	}
	return o
}

// DB is the embedded key-value store. All methods are safe for concurrent
// use; writes serialize internally.
type DB struct {
	dir  string
	opts Options
	fops FileOps

	mu       sync.RWMutex
	mem      *memtable
	wal      *wal
	segments []*segment // ordered oldest → newest
	nextSeg  uint64
	closed   bool

	// Background compactor lifecycle. compactKick wakes the compactor after
	// a flush; closeCh + wg give Close a race-free shutdown.
	compactKick chan struct{}
	closeCh     chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup
	compactErr  error  // last background compaction failure, under mu
	compactions uint64 // merges completed (background + forced), under mu

	// obs is the optional engine observer (observer.go); syncWave, written
	// under mu, tags the next WAL sync with the serving-layer wave it
	// belongs to (zero outside ApplyAllTagged).
	obs      obsPtr
	syncWave uint64

	// Replicated-log state (log.go), all under mu: the last committed LSN,
	// the in-memory mirror of the active WAL file, the sealed history
	// index, the next sealed-file sequence number, the corrupt tail bytes
	// discarded at open, and the broadcast channel tail subscribers block
	// on (closed and replaced on every commit).
	lastLSN      uint64
	activeRecs   []logRec
	sealed       []sealedLog
	nextWALSeq   uint64
	walDiscarded int64
	tailCh       chan struct{}
}

// Open opens (or creates) a database in dir, replaying any WAL left by a
// previous process.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating dir: %w", err)
	}
	fops := opts.FileOps
	if fops == nil {
		fops = osFileOps{}
	}
	db := &DB{
		dir:         dir,
		opts:        opts,
		fops:        fops,
		mem:         newMemtable(),
		compactKick: make(chan struct{}, 1),
		closeCh:     make(chan struct{}),
	}

	segs, maxID, err := loadSegments(dir)
	if err != nil {
		return nil, err
	}
	db.segments = segs
	db.nextSeg = maxID + 1

	// The sealed log history anchors the LSN sequence: the active file's
	// records continue from the newest sealed record.
	sealed, nextWALSeq, sealedLast, err := loadSealedLogs(dir)
	if err != nil {
		return nil, err
	}
	db.sealed = sealed
	db.nextWALSeq = nextWALSeq

	walPath := filepath.Join(dir, "wal.log")
	_ = fops.Remove(walPath + ".migrate") // stray file from a crashed migration
	w, recs, discarded, err := openWAL(fops, walPath)
	if err != nil {
		return nil, err
	}
	lastLSN, migrated := assignLSNs(recs, sealedLast)
	if migrated {
		// Legacy (pre-LSN) records: rewrite the active log in rev-2 framing
		// so the history is uniformly LSN-addressed before its first seal.
		if w, err = rewriteWAL(fops, w, recs); err != nil {
			return nil, err
		}
	}
	db.wal = w
	db.lastLSN = lastLSN
	db.walDiscarded = discarded
	db.tailCh = make(chan struct{})
	// Report WAL sync durations to the observer. Every sync runs under
	// db.mu, so reading syncWave here is ordered with commitGroupLocked's
	// write of it.
	w.onSync = func(d time.Duration) {
		if o := db.observer(); o != nil {
			o.WALSync(db.syncWave, d)
		}
	}
	for _, rec := range recs {
		db.installLocked(rec.entries)
		db.activeRecs = append(db.activeRecs, logRec{lsn: rec.lsn, payload: rec.payload})
	}
	if !opts.DisableAutoCompaction {
		db.wg.Add(1)
		go db.compactLoop()
	}
	return db, nil
}

// Put stores value under key. Both are copied; the caller may reuse the
// slices. Empty keys are rejected.
func (db *DB) Put(key, value []byte) error {
	if len(key) == 0 {
		return errors.New("store: empty key")
	}
	return db.commitOne(walEntry{key: key, value: value})
}

// Delete removes key. Deleting a missing key is not an error (the tombstone
// still shadows any segment copy).
func (db *DB) Delete(key []byte) error {
	if len(key) == 0 {
		return errors.New("store: empty key")
	}
	return db.commitOne(walEntry{key: key, tombstone: true})
}

// commitOne commits a one-entry record through the group commit.
func (db *DB) commitOne(e walEntry) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	group := [1]groupRecord{{lsn: db.lastLSN + 1, entries: []walEntry{e}}}
	return db.commitGroupLocked(group[:], 0)
}

// Get returns the value stored under key. The returned slice is a copy.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if v, tomb, ok := db.mem.get(key); ok {
		if tomb {
			return nil, ErrNotFound
		}
		return append([]byte(nil), v...), nil
	}
	for i := len(db.segments) - 1; i >= 0; i-- {
		v, tomb, ok, err := db.segments[i].get(key)
		if err != nil {
			return nil, err
		}
		if ok {
			if tomb {
				return nil, ErrNotFound
			}
			return v, nil
		}
	}
	return nil, ErrNotFound
}

// Has reports whether key exists.
func (db *DB) Has(key []byte) (bool, error) {
	_, err := db.Get(key)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Flush forces the memtable to a segment and truncates the WAL.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.flushLocked()
}

func (db *DB) flushLocked() error {
	if db.mem.len() == 0 {
		return nil
	}
	id := db.nextSeg
	path := segmentPath(db.dir, id)
	if err := writeSegment(db.fops, path, db.mem.sortedEntries()); err != nil {
		return err
	}
	seg, err := openSegment(path, id)
	if err != nil {
		return err
	}
	db.segments = append(db.segments, seg)
	db.nextSeg++
	db.mem = newMemtable()
	if err := db.sealWALLocked(); err != nil {
		return err
	}
	db.kickCompactor()
	return nil
}

// kickCompactor nudges the background compactor without blocking; a full
// channel means a wake-up is already pending.
func (db *DB) kickCompactor() {
	select {
	case db.compactKick <- struct{}{}:
	default:
	}
}

// Sync flushes the WAL to stable storage without flushing the memtable.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.wal.sync()
}

// Compact is the forced stop-the-world full merge: every segment collapses
// into one, dropping tombstones and shadowed versions. The memtable is
// flushed first so the result is a full snapshot. Routine merging happens
// continuously in the background (see compaction.go); Compact remains for
// checkpoints and tests that want a single-segment store now.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.flushLocked(); err != nil {
		return err
	}
	if len(db.segments) <= 1 {
		return nil
	}
	t0 := time.Now()
	err := db.compactFullLocked()
	db.noteCompaction(time.Since(t0), err)
	return err
}

// compactFullLocked merges every segment into one; the caller holds db.mu
// and has flushed the memtable.
func (db *DB) compactFullLocked() error {
	merged, err := mergeSegments(db.segments, true)
	if err != nil {
		return err
	}
	id := db.nextSeg
	path := segmentPath(db.dir, id)
	if err := writeSegment(db.fops, path, merged); err != nil {
		return err
	}
	seg, err := openSegment(path, id)
	if err != nil {
		return err
	}
	old := db.segments
	db.segments = []*segment{seg}
	db.nextSeg++
	db.compactions++
	// Remove oldest-first: at any crash point the surviving files still
	// shadow each other correctly when reloaded in id order.
	for _, s := range old {
		s.close()
		if err := db.fops.Remove(s.path); err != nil {
			return fmt.Errorf("store: removing old segment: %w", err)
		}
	}
	return nil
}

// CompactionError returns the most recent background compaction failure, if
// any. Background failures never corrupt the store — a failed merge leaves
// the original segments in place — but they do mean read amplification
// stops improving, so health checks should surface this.
func (db *DB) CompactionError() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.compactErr
}

// Len returns the number of live keys. It is O(total entries) and intended
// for tests and reporting, not hot paths.
func (db *DB) Len() (int, error) {
	n := 0
	err := db.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// Scan visits live keys in [start, end) in ascending order, calling fn for
// each; fn returning false stops the scan. nil start means the beginning,
// nil end means past the last key. The key/value slices passed to fn are
// only valid during the call.
func (db *DB) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	sources := make([]iterator, 0, len(db.segments)+1)
	// Newest source first: memtable, then segments newest→oldest. mergeIter
	// resolves duplicate keys in favor of the earliest source.
	sources = append(sources, db.mem.iter(start, end))
	for i := len(db.segments) - 1; i >= 0; i-- {
		it, err := db.segments[i].iter(start, end)
		if err != nil {
			return err
		}
		sources = append(sources, it)
	}
	mi := newMergeIter(sources)
	for {
		e, ok := mi.next()
		if !ok {
			return nil
		}
		if e.tombstone {
			continue
		}
		if !fn(e.key, e.value) {
			return nil
		}
	}
}

// Keys returns all live keys in [start, end); convenience wrapper over Scan.
func (db *DB) Keys(start, end []byte) ([][]byte, error) {
	var keys [][]byte
	err := db.Scan(start, end, func(k, _ []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	})
	return keys, err
}

// SegmentCount reports how many immutable segments back the store.
func (db *DB) SegmentCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.segments)
}

// Stats is a point-in-time snapshot of engine internals, cheap enough for a
// metrics endpoint to poll.
type Stats struct {
	// Segments is the immutable segment count; SegmentBytes their on-disk
	// total.
	Segments     int
	SegmentBytes int64
	// MemtableKeys / MemtableBytes describe the mutable tier.
	MemtableKeys  int
	MemtableBytes int
	// Compactions counts merges completed since open (background tiers and
	// forced Compact calls).
	Compactions uint64
	// CompactionErr is the most recent background compaction failure, empty
	// when healthy.
	CompactionErr string
	// AppliedLSN is the last committed log sequence number; LogFloorLSN the
	// oldest LSN still retained (log.go).
	AppliedLSN  uint64
	LogFloorLSN uint64
	// WALSealedFiles / WALSealedBytes describe the retained log history.
	WALSealedFiles int
	WALSealedBytes int64
	// WALDiscardedBytes counts the corrupt tail bytes replay dropped at
	// open — zero on a clean log, nonzero after a torn write, so a
	// replication divergence on a crashed leader is diagnosable.
	WALDiscardedBytes int64
}

// Stats snapshots the engine counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := Stats{
		Segments:          len(db.segments),
		MemtableKeys:      db.mem.len(),
		MemtableBytes:     db.mem.bytes,
		Compactions:       db.compactions,
		AppliedLSN:        db.lastLSN,
		LogFloorLSN:       db.logFloorLocked(),
		WALSealedFiles:    len(db.sealed),
		WALDiscardedBytes: db.walDiscarded,
	}
	for _, s := range db.segments {
		st.SegmentBytes += s.size
	}
	for _, s := range db.sealed {
		st.WALSealedBytes += s.bytes
	}
	if db.compactErr != nil {
		st.CompactionErr = db.compactErr.Error()
	}
	return st
}

// Close flushes and releases all resources. The DB is unusable afterwards.
// The background compactor is stopped and drained first, so no goroutine
// outlives a returned Close.
func (db *DB) Close() error {
	db.closeOnce.Do(func() { close(db.closeCh) })
	db.wg.Wait()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	err := db.flushLocked()
	for _, s := range db.segments {
		s.close()
	}
	if werr := db.wal.close(); err == nil {
		err = werr
	}
	db.closed = true
	// Wake blocked tail subscribers so they observe the close.
	db.notifyTailLocked()
	return err
}

func loadSegments(dir string) ([]*segment, uint64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.dat"))
	if err != nil {
		return nil, 0, err
	}
	type idPath struct {
		id   uint64
		path string
	}
	var found []idPath
	for _, p := range names {
		var id uint64
		base := filepath.Base(p)
		if _, err := fmt.Sscanf(base, "seg-%016x.dat", &id); err != nil {
			continue // foreign file; ignore
		}
		found = append(found, idPath{id, p})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].id < found[j].id })
	var segs []*segment
	var maxID uint64
	for _, f := range found {
		s, err := openSegment(f.path, f.id)
		if err != nil {
			return nil, 0, fmt.Errorf("store: opening %s: %w", f.path, err)
		}
		segs = append(segs, s)
		if f.id > maxID {
			maxID = f.id
		}
	}
	return segs, maxID, nil
}

func segmentPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016x.dat", id))
}

// entry is the unified record shape flowing between memtable, WAL and
// segments.
type entry struct {
	key       []byte
	value     []byte
	tombstone bool
}

type iterator interface {
	// next returns the next entry in key order; ok=false means exhausted.
	next() (entry, bool)
}

// mergeIter merges already-sorted iterators; on duplicate keys the iterator
// that appears earliest in sources wins (sources must therefore be ordered
// newest first).
type mergeIter struct {
	sources []iterator
	heads   []*entry
}

func newMergeIter(sources []iterator) *mergeIter {
	m := &mergeIter{sources: sources, heads: make([]*entry, len(sources))}
	for i := range sources {
		m.advance(i)
	}
	return m
}

func (m *mergeIter) advance(i int) {
	e, ok := m.sources[i].next()
	if ok {
		m.heads[i] = &e
	} else {
		m.heads[i] = nil
	}
}

func (m *mergeIter) next() (entry, bool) {
	best := -1
	for i, h := range m.heads {
		if h == nil {
			continue
		}
		if best == -1 || bytes.Compare(h.key, m.heads[best].key) < 0 {
			best = i
		}
	}
	if best == -1 {
		return entry{}, false
	}
	out := *m.heads[best]
	// Consume the winner and every older duplicate of the same key.
	key := append([]byte(nil), out.key...)
	for i := range m.heads {
		for m.heads[i] != nil && bytes.Equal(m.heads[i].key, key) {
			m.advance(i)
		}
	}
	return out, true
}
