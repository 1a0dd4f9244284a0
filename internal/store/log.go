package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The replicated-log surface (DESIGN.md §9). Every committed record carries
// a durable, monotone log sequence number persisted in the WAL framing
// (wal.go, opBatchLSN), and a memtable flush no longer discards the log: the
// active file is sealed under an LSN-stamped name and retained until the
// history budget evicts it. TailLog streams committed records from that
// history — sealed files, then the in-memory mirror of the active file, then
// live commits — so a follower can replicate the store by replaying exactly
// the bytes the leader's own crash recovery would replay. When a requested
// position has been pruned, ExportSnapshot provides the state handoff and
// SnapshotLSN the position to resume tailing from.

// ErrLogCompacted is returned by TailLog when the requested LSN has been
// pruned from the retained history; the caller must bootstrap from
// ExportSnapshot instead.
var ErrLogCompacted = errors.New("store: log position compacted away")

// ErrTailClosed is returned by LogTail.Next after Close.
var ErrTailClosed = errors.New("store: log tail closed")

// LogEntry is one key operation inside a log record.
type LogEntry struct {
	Key       []byte
	Value     []byte
	Tombstone bool
}

// LogRecord is one committed atomic record of the replicated log: the
// entries of a WriteBatch (or a single Put/Delete), the batch's opaque
// annotation, and the record's durable sequence number.
type LogRecord struct {
	LSN        uint64
	Annotation []byte
	Entries    []LogEntry
}

// logRec is the in-memory mirror of a committed record in the active WAL
// file: the LSN and the exact record payload (decodable, immutable once
// appended). It exists so TailLog never has to read through the buffered
// active file.
type logRec struct {
	lsn     uint64
	payload []byte
}

// sealedLog indexes one retained, immutable WAL file.
type sealedLog struct {
	path  string
	seq   uint64
	first uint64
	last  uint64
	bytes int64
}

func sealedLogPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

// loadSealedLogs indexes the retained WAL files in dir, oldest first.
// Files with no valid records are ignored.
func loadSealedLogs(dir string) (sealed []sealedLog, nextSeq uint64, lastLSN uint64, err error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, 1, 0, err
	}
	for _, p := range names {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%016x.log", &seq); err != nil {
			continue // foreign file; ignore
		}
		recs, err := readSealedRecords(p, 0)
		if err != nil {
			return nil, 1, 0, fmt.Errorf("store: scanning %s: %w", p, err)
		}
		if seq >= nextSeq {
			nextSeq = seq + 1
		}
		if len(recs) == 0 {
			continue
		}
		sl := sealedLog{path: p, seq: seq, first: recs[0].lsn, last: recs[len(recs)-1].lsn}
		for _, r := range recs {
			sl.bytes += int64(8 + len(r.payload))
		}
		sealed = append(sealed, sl)
	}
	sort.Slice(sealed, func(i, j int) bool { return sealed[i].seq < sealed[j].seq })
	if len(sealed) > 0 {
		lastLSN = sealed[len(sealed)-1].last
	}
	if nextSeq == 0 {
		nextSeq = 1
	}
	return sealed, nextSeq, lastLSN, nil
}

// readSealedRecords reads the LSN-stamped records of a sealed WAL file with
// lsn >= fromLSN. Sealed files are synced before they are renamed into
// place, so a corrupt tail is unexpected — but tolerated the same way
// replay tolerates it: the valid prefix is returned.
func readSealedRecords(path string, fromLSN uint64) ([]logRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	var recs []logRec
	var header [8]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return recs, nil
		}
		wantCRC := binary.LittleEndian.Uint32(header[0:4])
		plen := binary.LittleEndian.Uint32(header[4:8])
		if plen == 0 || plen > MaxRecordBytes {
			return recs, nil
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, nil
		}
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			return recs, nil
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return recs, nil
		}
		if rec.LSN >= fromLSN {
			recs = append(recs, logRec{lsn: rec.LSN, payload: payload})
		}
	}
}

// AppliedLSN reports the sequence number of the last committed record: the
// position a follower resuming from this store's state should tail from
// (exclusive).
func (db *DB) AppliedLSN() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lastLSN
}

// LogFloor reports the oldest LSN still retained in log history. A TailLog
// from any position >= the floor succeeds; older positions need a snapshot.
func (db *DB) LogFloor() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.logFloorLocked()
}

func (db *DB) logFloorLocked() uint64 {
	if len(db.sealed) > 0 {
		return db.sealed[0].first
	}
	if len(db.activeRecs) > 0 {
		return db.activeRecs[0].lsn
	}
	return db.lastLSN + 1
}

// notifyTailLocked wakes every blocked LogTail; they re-poll under the lock.
func (db *DB) notifyTailLocked() {
	close(db.tailCh)
	db.tailCh = make(chan struct{})
}

// sealWALLocked retires the active WAL file after a memtable flush: instead
// of truncating it (the pre-replication behavior), the file is synced and
// renamed into the retained history, and a fresh active file replaces it.
// The caller holds db.mu.
func (db *DB) sealWALLocked() error {
	if len(db.activeRecs) == 0 {
		// Nothing committed to retain (only possible when every record in
		// the file was unacknowledged): the old truncate-in-place behavior.
		return db.wal.reset()
	}
	if err := db.wal.failed(); err != nil {
		// A sticky write failure means the file may hold in-doubt bytes
		// past the committed records; sealing it would promote them into
		// the shippable history. Reopen resolves them first.
		return err
	}
	if err := db.wal.w.Flush(); err != nil {
		db.wal.err = err
		return err
	}
	if err := db.wal.f.Sync(); err != nil {
		return err
	}
	if err := db.wal.f.Close(); err != nil {
		return err
	}
	seq := db.nextWALSeq
	sp := sealedLogPath(db.dir, seq)
	if err := db.fops.Rename(db.wal.path, sp); err != nil {
		// The active file is still in place; reopen it so writes continue.
		if f, oerr := db.fops.OpenWAL(db.wal.path); oerr == nil {
			if _, serr := f.Seek(0, io.SeekEnd); serr == nil {
				db.wal.f = f
				db.wal.w.Reset(f)
			} else {
				f.Close()
			}
		}
		return fmt.Errorf("store: sealing wal: %w", err)
	}
	db.nextWALSeq++
	sl := sealedLog{path: sp, seq: seq, first: db.activeRecs[0].lsn, last: db.activeRecs[len(db.activeRecs)-1].lsn}
	for _, r := range db.activeRecs {
		sl.bytes += int64(8 + len(r.payload))
	}
	db.sealed = append(db.sealed, sl)
	db.activeRecs = nil
	f, err := db.fops.OpenWAL(db.wal.path)
	if err != nil {
		return fmt.Errorf("store: reopening wal: %w", err)
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return err
	}
	db.wal.f = f
	db.wal.w.Reset(f)
	db.pruneSealedLocked()
	return nil
}

// pruneSealedLocked evicts the oldest sealed files while the retained bytes
// exceed the budget. The newest sealed file always survives, so the floor
// never catches up to the head in one step and a freshly caught-up follower
// keeps a resume window. A failed remove stops pruning; the next seal
// retries.
func (db *DB) pruneSealedLocked() {
	var total int64
	for _, s := range db.sealed {
		total += s.bytes
	}
	for len(db.sealed) > 1 && total > db.opts.LogRetainBytes {
		if err := db.fops.Remove(db.sealed[0].path); err != nil {
			return
		}
		total -= db.sealed[0].bytes
		db.sealed = db.sealed[1:]
	}
}

// LogTail is a subscription to the committed record stream, created by
// TailLog. Next blocks until a record at or past the requested position is
// committed; Close unblocks it. A LogTail is safe for one consumer.
type LogTail struct {
	db   *DB
	next uint64
	// buf is the refill not yet handed out: a capped window of the active
	// log mirror (its elements are never rewritten; appends land past the
	// cap) or the records of one sealed file.
	buf     []logRec
	closeCh chan struct{}
	closed  bool
}

// TailLog opens a subscription streaming every committed record with
// LSN >= fromLSN (0 is treated as 1: the whole retained history). Returns
// ErrLogCompacted when fromLSN predates the retained floor.
func (db *DB) TailLog(fromLSN uint64) (*LogTail, error) {
	if fromLSN == 0 {
		fromLSN = 1
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if floor := db.logFloorLocked(); fromLSN < floor {
		return nil, fmt.Errorf("%w: requested %d, floor %d", ErrLogCompacted, fromLSN, floor)
	}
	return &LogTail{db: db, next: fromLSN, closeCh: make(chan struct{})}, nil
}

// Close unblocks a pending Next and releases the tail.
func (t *LogTail) Close() error {
	if !t.closed {
		t.closed = true
		close(t.closeCh)
	}
	return nil
}

// Buffered reports how many records the tail holds from its last refill,
// which Next serves without taking the store's lock. A consumer batching
// its output flushes when it reaches zero, before Next may block.
func (t *LogTail) Buffered() int { return len(t.buf) }

// Next returns the next committed record, blocking until one is available.
// It returns ErrTailClosed after Close, ErrClosed once the store closes,
// and ErrLogCompacted if retention overtook the tail's position (a consumer
// too slow for the history budget must re-bootstrap from a snapshot).
//
// The caller owns the record: its payload bytes are a private copy (the
// active-log original is shared with the memtable) and its Entries slice
// is fresh per call, so a consumer may hold records across calls.
func (t *LogTail) Next() (LogRecord, error) {
	for {
		if len(t.buf) > 0 {
			raw := t.buf[0]
			t.buf = t.buf[1:]
			if raw.lsn < t.next {
				// Duplicate position (snapshot-restore records share one
				// LSN): the first record of a position wins.
				continue
			}
			rec, err := decodeWALRecord(bytes.Clone(raw.payload))
			if err != nil {
				return LogRecord{}, err
			}
			t.next = raw.lsn + 1
			return rec, nil
		}
		select {
		case <-t.closeCh:
			return LogRecord{}, ErrTailClosed
		default:
		}

		var sealedPath string
		var wait chan struct{}
		db := t.db
		db.mu.RLock()
		switch {
		case db.closed:
			db.mu.RUnlock()
			return LogRecord{}, ErrClosed
		case t.next < db.logFloorLocked():
			floor := db.logFloorLocked()
			db.mu.RUnlock()
			return LogRecord{}, fmt.Errorf("%w: tail at %d, floor %d", ErrLogCompacted, t.next, floor)
		}
		if i := sort.Search(len(db.sealed), func(i int) bool { return db.sealed[i].last >= t.next }); i < len(db.sealed) {
			sealedPath = db.sealed[i].path
		} else {
			// The mirror is in non-decreasing LSN order: commits append in
			// LSN order, restored records share one LSN at or past the last,
			// and a failed commit cuts back only records no refill has seen.
			// So the position is a binary search, and the suffix a capped
			// window no later append or cut-back can write into.
			recs := db.activeRecs
			n := len(recs)
			i := sort.Search(n, func(i int) bool { return recs[i].lsn >= t.next })
			if i < n {
				t.buf = recs[i:n:n]
			} else {
				t.buf, wait = nil, db.tailCh
			}
		}
		db.mu.RUnlock()

		if sealedPath != "" {
			recs, err := readSealedRecords(sealedPath, t.next)
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					continue // pruned under us; the floor check above decides
				}
				return LogRecord{}, err
			}
			if len(recs) == 0 {
				return LogRecord{}, fmt.Errorf("store: sealed log %s has no records past lsn %d", sealedPath, t.next)
			}
			t.buf = recs
			continue
		}
		if wait != nil {
			select {
			case <-wait:
			case <-t.closeCh:
				return LogRecord{}, ErrTailClosed
			}
		}
	}
}

// ExportSnapshot captures a consistent copy of the live key space and the
// LSN it is current through: the state handoff for a follower whose
// requested position has been compacted away. The follower restores the
// pairs (RestoreSnapshot) and resumes tailing from SnapshotLSN+1.
func (db *DB) ExportSnapshot() (pairs []LogEntry, snapshotLSN uint64, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, 0, ErrClosed
	}
	snapshotLSN = db.lastLSN
	sources := make([]iterator, 0, len(db.segments)+1)
	sources = append(sources, db.mem.iter(nil, nil))
	for i := len(db.segments) - 1; i >= 0; i-- {
		it, err := db.segments[i].iter(nil, nil)
		if err != nil {
			return nil, 0, err
		}
		sources = append(sources, it)
	}
	mi := newMergeIter(sources)
	for {
		e, ok := mi.next()
		if !ok {
			return pairs, snapshotLSN, nil
		}
		if e.tombstone {
			continue
		}
		pairs = append(pairs, LogEntry{
			Key:   append([]byte(nil), e.key...),
			Value: append([]byte(nil), e.value...),
		})
	}
}

// restoreChunkBytes bounds one RestoreSnapshot record, keeping each framed
// record far under MaxRecordBytes: a chunk is cut once its pairs reach it.
const restoreChunkBytes = 2 << 20

// RestoreSnapshot installs an exported snapshot into a (normally fresh)
// store and fast-forwards the LSN sequence to snapshotLSN, so the next
// ApplyReplicated run must start at snapshotLSN+1. The pairs are written as
// ordinary WAL records (chunks all stamped snapshotLSN) — a restored
// follower recovers its state from its own log exactly like a leader does.
//
// The restore is one group commit (commitGroupLocked), all or nothing:
// every pair is checked before anything is written, and on any error —
// a bad pair, a WAL write or sync fault — nothing is installed and the
// applied LSN stays where it was. An empty snapshot only moves the LSN.
func (db *DB) RestoreSnapshot(pairs []LogEntry, snapshotLSN uint64) error {
	entries := make([]walEntry, len(pairs))
	var group []groupRecord
	start, chunkBytes := 0, 0
	for i, p := range pairs {
		if len(p.Key) == 0 {
			return errors.New("store: empty key in snapshot")
		}
		if p.Tombstone {
			return errors.New("store: tombstone in snapshot")
		}
		entries[i] = walEntry{key: p.Key, value: p.Value}
		if chunkBytes += len(p.Key) + len(p.Value); chunkBytes >= restoreChunkBytes || i == len(pairs)-1 {
			r := groupRecord{lsn: snapshotLSN, entries: entries[start : i+1 : i+1]}
			if err := checkRecord(nil, r.entries); err != nil {
				return err
			}
			group = append(group, r)
			start, chunkBytes = i+1, 0
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if snapshotLSN < db.lastLSN {
		return fmt.Errorf("store: snapshot lsn %d behind applied %d", snapshotLSN, db.lastLSN)
	}
	if len(group) == 0 {
		db.lastLSN = snapshotLSN
		db.notifyTailLocked()
		return nil
	}
	return db.commitGroupLocked(group, 0)
}

// ApplyReplicated commits a run of records shipped from a leader's log,
// with the leader's own LSNs — the follower half of the replication
// contract. The run must extend the local sequence exactly (recs[i].LSN ==
// AppliedLSN()+1+i); a gap anywhere means the streams diverged, the whole
// run is refused with nothing written, and the caller must re-bootstrap.
// The run commits as one ApplyAll-style group: every record framed, one
// sync (under SyncWrites), then install and publish — so a crash replays a
// prefix of the run, and a follower's own recovery and TailLog work
// unchanged. An empty run is a no-op.
func (db *DB) ApplyReplicated(recs []LogRecord) error {
	if len(recs) == 0 {
		return nil
	}
	n := 0
	for _, r := range recs {
		if len(r.Entries) == 0 {
			return fmt.Errorf("store: empty replicated record %d", r.LSN)
		}
		n += len(r.Entries)
	}
	wes := make([]walEntry, 0, n)
	group := make([]groupRecord, len(recs))
	for i, r := range recs {
		start := len(wes)
		for _, e := range r.Entries {
			wes = append(wes, walEntry{key: e.Key, value: e.Value, tombstone: e.Tombstone})
		}
		group[i] = groupRecord{lsn: r.LSN, annotation: r.Annotation, entries: wes[start:len(wes):len(wes)]}
		if err := checkRecord(r.Annotation, group[i].entries); err != nil {
			return err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	for i, r := range group {
		if want := db.lastLSN + 1 + uint64(i); r.lsn != want {
			return fmt.Errorf("store: replicated lsn %d does not extend applied %d", r.lsn, want-1)
		}
	}
	return db.commitGroupLocked(group, 0)
}
