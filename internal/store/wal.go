package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// wal is the write-ahead log. Record framing:
//
//	[4] crc32 (Castagnoli) of everything after this field
//	[4] payload length
//	payload (rev 2, opBatchLSN — what every writer produces today):
//	  [1] op (3)
//	  [uvarint] log sequence number
//	  [uvarint] annotation length, annotation bytes (opaque to the engine)
//	  [uvarint] entry count, then per entry:
//	    [1] op (0 = put, 1 = delete)
//	    [uvarint] key length, key bytes
//	    [uvarint] value length, value bytes (absent for deletes)
//
// Replay also accepts the rev-1 payloads (a bare put/delete entry, or an
// opBatch-framed group) and assigns them sequential LSNs; Open then rewrites
// such a log in rev-2 framing so sealed history is uniformly addressable
// (log.go).
//
// Replay stops at the first corrupt or truncated record — the standard
// torn-write recovery contract: everything acknowledged before a crash is
// intact, a partial trailing record is discarded (and counted, so a torn
// tail is diagnosable: see Stats.WALDiscardedBytes).
type wal struct {
	f    WALFile
	w    *bufio.Writer
	path string
	// err is the sticky append failure. Once a record append, flush or
	// sync fails, the bytes of a record stamped with an LSN may or may not
	// be durable — and lastLSN was never advanced for it. Appending again
	// would re-bind that LSN to different content, making the log
	// ambiguous at that position: replay and a replication tail could then
	// disagree about what the LSN means (a leader/follower divergence).
	// So the log turns itself off instead; reopening the store replays
	// whatever actually landed and resolves every in-doubt record one way
	// or the other before new appends continue past them.
	err error
	// onSync, when set, is called with every sync's duration (flush +
	// fsync, the write path's durability stall). Called under the same
	// lock discipline as the sync itself.
	onSync func(d time.Duration)
}

type walEntry struct {
	key       []byte
	value     []byte
	tombstone bool
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxWALRecord bounds a single framed record (and therefore a WriteBatch):
// replay treats larger lengths as a corrupt tail, so writes refuse them.
const maxWALRecord = 64 << 20

const (
	opPut    = 0
	opDelete = 1
	// opBatch frames several puts/deletes in one CRC-checked record, so a
	// whole WriteBatch commits or is discarded atomically on replay.
	opBatch = 2
	// opBatchLSN is opBatch extended with a persisted log sequence number
	// and an opaque annotation blob — the rev-2 framing every writer
	// produces; the older ops survive only as replayable history.
	opBatchLSN = 3
)

// walRec is one decoded log record: its sequence number (0 until assigned,
// for legacy records), annotation, entries, and the exact payload bytes.
type walRec struct {
	lsn        uint64
	annotation []byte
	entries    []walEntry
	payload    []byte
	legacy     bool
}

// openWAL opens the log at path, replaying existing records. A truncated or
// corrupt tail is truncated away; discarded reports how many tail bytes
// that dropped (satelliting the silent-discard fix: a follower diverging on
// a torn leader log must be diagnosable).
func openWAL(fops FileOps, path string) (*wal, []walRec, int64, error) {
	f, err := fops.OpenWAL(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: opening wal: %w", err)
	}
	recs, validLen, discarded, err := replayWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	// Truncate any corrupt tail so new records don't append after garbage.
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("store: truncating wal tail: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, 64<<10), path: path}, recs, discarded, nil
}

func replayWAL(f WALFile) ([]walRec, int64, int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, err
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var recs []walRec
	var offset int64
	var header [8]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, offset, size - offset, nil
			}
			return nil, 0, 0, err
		}
		wantCRC := binary.LittleEndian.Uint32(header[0:4])
		plen := binary.LittleEndian.Uint32(header[4:8])
		if plen == 0 || plen > maxWALRecord {
			return recs, offset, size - offset, nil // implausible length: corrupt tail
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, offset, size - offset, nil
			}
			return nil, 0, 0, err
		}
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			return recs, offset, size - offset, nil // corrupt record: stop replay here
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return recs, offset, size - offset, nil
		}
		recs = append(recs, rec)
		offset += int64(8 + plen)
	}
}

// decodeWALRecord decodes one framed payload in either revision.
func decodeWALRecord(p []byte) (walRec, error) {
	if len(p) < 1 {
		return walRec{}, errors.New("store: short wal payload")
	}
	if p[0] != opBatchLSN {
		entries, err := decodeWALPayload(p)
		if err != nil {
			return walRec{}, err
		}
		return walRec{entries: entries, payload: p, legacy: true}, nil
	}
	rest := p[1:]
	lsn, n := binary.Uvarint(rest)
	if n <= 0 || lsn == 0 {
		return walRec{}, errors.New("store: bad wal record lsn")
	}
	rest = rest[n:]
	alen, n := binary.Uvarint(rest)
	if n <= 0 || alen > uint64(len(rest)-n) {
		return walRec{}, errors.New("store: bad wal annotation length")
	}
	rest = rest[n:]
	var annotation []byte
	if alen > 0 {
		annotation = append([]byte(nil), rest[:alen]...)
	}
	rest = rest[alen:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > uint64(len(rest)) {
		return walRec{}, errors.New("store: bad wal entry count")
	}
	rest = rest[n:]
	entries := make([]walEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		e, next, err := decodeWALSubEntry(rest)
		if err != nil {
			return walRec{}, err
		}
		entries = append(entries, e)
		rest = next
	}
	if len(rest) != 0 {
		return walRec{}, errors.New("store: trailing bytes in wal record")
	}
	return walRec{lsn: lsn, annotation: annotation, entries: entries, payload: p}, nil
}

// encodeLSNRecord frames entries (and the annotation) as one rev-2 payload
// stamped with lsn.
func encodeLSNRecord(lsn uint64, annotation []byte, entries []walEntry) []byte {
	buf := make([]byte, 0, walLSNRecordBound(annotation, entries))
	buf = append(buf, opBatchLSN)
	buf = binary.AppendUvarint(buf, lsn)
	buf = binary.AppendUvarint(buf, uint64(len(annotation)))
	buf = append(buf, annotation...)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = appendWALSubEntry(buf, e)
	}
	return buf
}

// walLSNRecordBound is a conservative upper bound on the framed payload
// encodeLSNRecord produces. A batch whose bound fits under maxWALRecord can
// never trip writeRecordNoSync's cap — which lets a group commit
// (checkRecord) reject an oversize record BEFORE anything of the group
// reaches the buffered writer.
func walLSNRecordBound(annotation []byte, entries []walEntry) int {
	size := 1 + 3*binary.MaxVarintLen64 + len(annotation)
	for _, e := range entries {
		size += 1 + 2*binary.MaxVarintLen64 + len(e.key) + len(e.value)
	}
	return size
}

// decodeWALPayload decodes one framed record into the entries it carries:
// a single entry for put/delete records, every sub-entry for batch records.
func decodeWALPayload(p []byte) ([]walEntry, error) {
	if len(p) < 1 {
		return nil, errors.New("store: short wal payload")
	}
	if p[0] == opBatch {
		rest := p[1:]
		count, n := binary.Uvarint(rest)
		if n <= 0 || count == 0 || count > uint64(len(rest)) {
			return nil, errors.New("store: bad wal batch count")
		}
		rest = rest[n:]
		entries := make([]walEntry, 0, count)
		for i := uint64(0); i < count; i++ {
			e, next, err := decodeWALSubEntry(rest)
			if err != nil {
				return nil, err
			}
			entries = append(entries, e)
			rest = next
		}
		if len(rest) != 0 {
			return nil, errors.New("store: trailing bytes in wal batch")
		}
		return entries, nil
	}
	e, rest, err := decodeWALSubEntry(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("store: trailing bytes in wal record")
	}
	return []walEntry{e}, nil
}

// decodeWALSubEntry decodes one op+key[+value] unit and returns the
// remaining bytes.
func decodeWALSubEntry(p []byte) (walEntry, []byte, error) {
	if len(p) < 1 {
		return walEntry{}, nil, errors.New("store: short wal entry")
	}
	op := p[0]
	rest := p[1:]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < klen {
		return walEntry{}, nil, errors.New("store: bad wal key length")
	}
	rest = rest[n:]
	key := append([]byte(nil), rest[:klen]...)
	rest = rest[klen:]
	switch op {
	case opDelete:
		return walEntry{key: key, tombstone: true}, rest, nil
	case opPut:
		vlen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < vlen {
			return walEntry{}, nil, errors.New("store: bad wal value length")
		}
		rest = rest[n:]
		value := append([]byte(nil), rest[:vlen]...)
		return walEntry{key: key, value: value}, rest[vlen:], nil
	default:
		return walEntry{}, nil, fmt.Errorf("store: unknown wal op %d", op)
	}
}

func appendWALSubEntry(buf []byte, e walEntry) []byte {
	if e.tombstone {
		buf = append(buf, opDelete)
		buf = binary.AppendUvarint(buf, uint64(len(e.key)))
		return append(buf, e.key...)
	}
	buf = append(buf, opPut)
	buf = binary.AppendUvarint(buf, uint64(len(e.key)))
	buf = append(buf, e.key...)
	buf = binary.AppendUvarint(buf, uint64(len(e.value)))
	return append(buf, e.value...)
}

// errWALFailed reports the sticky failure on every call after the one that
// tripped it. ErrWALFailed lets callers distinguish "the log already gave
// up" from a fresh device error.
var ErrWALFailed = errors.New("store: wal disabled by an earlier write failure; reopen to recover")

func (w *wal) failed() error {
	if w.err == nil {
		return nil
	}
	return fmt.Errorf("%w (first failure: %v)", ErrWALFailed, w.err)
}

// writeRecordNoSync frames and appends one payload to the buffered writer;
// the group commit (commitGroupLocked) appends a whole sequence of records
// this way and pays one sync at the end.
func (w *wal) writeRecordNoSync(buf []byte) error {
	if err := w.failed(); err != nil {
		return err
	}
	// The cap is a validation error, rejected before any byte reaches the
	// buffer: nothing in-doubt, so it is not sticky.
	if len(buf) > maxWALRecord {
		return fmt.Errorf("store: wal record %d bytes exceeds %d-byte cap", len(buf), maxWALRecord)
	}
	var header [8]byte
	binary.LittleEndian.PutUint32(header[0:4], crc32.Checksum(buf, castagnoli))
	binary.LittleEndian.PutUint32(header[4:8], uint32(len(buf)))
	if _, err := w.w.Write(header[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(buf); err != nil {
		w.err = err
		return err
	}
	return nil
}

func (w *wal) sync() error { return w.syncLocked() }

func (w *wal) syncLocked() error {
	if err := w.failed(); err != nil {
		return err
	}
	var start time.Time
	if w.onSync != nil {
		start = time.Now()
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	err := w.f.Sync()
	if w.onSync != nil {
		// Failed syncs report too: a device stalling before it errors is
		// exactly what latency instrumentation exists to show.
		w.onSync(time.Since(start))
	}
	if err != nil {
		w.err = err
	}
	return err
}

// reset truncates the log after a memtable flush: the flushed segment now
// owns that data. Reached only when no committed record lives in the file
// (log.go sealWALLocked), so truncating to zero also destroys any in-doubt
// bytes a sticky failure was guarding — the failure clears with them.
func (w *wal) reset() error {
	if w.err == nil {
		if err := w.w.Flush(); err != nil {
			w.err = err
			return err
		}
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.w.Reset(w.f)
	w.err = nil
	return nil
}

// assignLSNs stamps sequential numbers onto legacy records, continuing
// from prior, and reports whether any were found. Deterministic for a
// given file, so repeated opens of an unmigrated log agree.
func assignLSNs(recs []walRec, prior uint64) (last uint64, migrated bool) {
	last = prior
	for i := range recs {
		if recs[i].legacy {
			last++
			recs[i].lsn = last
			recs[i].payload = encodeLSNRecord(last, nil, recs[i].entries)
			recs[i].legacy = false
			migrated = true
		} else if recs[i].lsn > last {
			last = recs[i].lsn
		}
	}
	return last, migrated
}

// rewriteWAL atomically replaces the active log with the given records
// (used to normalize legacy logs into rev-2 framing at open): the records
// are written to a sibling file, synced, and renamed over the original —
// a crash at any point leaves either the old or the new complete file.
func rewriteWAL(fops FileOps, w *wal, recs []walRec) (*wal, error) {
	tmpPath := w.path + ".migrate"
	f, err := fops.OpenWAL(tmpPath)
	if err != nil {
		return nil, fmt.Errorf("store: migrating wal: %w", err)
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, err
	}
	nw := &wal{f: f, w: bufio.NewWriterSize(f, 64<<10), path: w.path}
	for _, r := range recs {
		if err := nw.writeRecordNoSync(r.payload); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := nw.w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		f.Close()
		return nil, err
	}
	if err := fops.Rename(tmpPath, w.path); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: migrating wal: %w", err)
	}
	// After the rename the already-open handle IS the active log, with the
	// write position at its end.
	return nw, nil
}

func (w *wal) close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
