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
//	payload:
//	  [1] op (3)
//	  [uvarint] log sequence number
//	  [uvarint] annotation length, annotation bytes (opaque to the engine)
//	  [uvarint] entry count, then per entry:
//	    [1] op (0 = put, 1 = delete)
//	    [uvarint] key length, key bytes
//	    [uvarint] value length, value bytes (absent for deletes)
//
// Replay refuses a log holding a CRC-valid record with op 0, 1 or 2 — the
// pre-LSN framings (a bare put/delete entry, or an LSN-less batch) — with
// ErrLegacyWAL and leaves the file untouched: such a record is committed
// data this build cannot address, so it must neither be applied under a
// guessed LSN nor discarded as a torn tail.
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

// MaxRecordBytes bounds a single framed record (and therefore a WriteBatch
// and any value): replay treats larger lengths as a corrupt tail, so writes
// refuse them. A log-shipping consumer sizes its frame limit from it.
const MaxRecordBytes = 64 << 20

const (
	opPut    = 0
	opDelete = 1
	// opBatchLSN frames several puts/deletes in one CRC-checked record —
	// so a whole WriteBatch commits or is discarded atomically on replay —
	// with a persisted log sequence number and an opaque annotation blob.
	// Ops 0-2 as a record's first byte are the pre-LSN framings.
	opBatchLSN = 3
)

// ErrLegacyWAL is returned by Open when the active log holds a record in a
// pre-LSN framing. The log is left byte-for-byte as it was.
var ErrLegacyWAL = errors.New("store: wal holds pre-LSN records this build does not read")

// openWAL opens the log at path, replaying existing records. A truncated or
// corrupt tail is truncated away; discarded reports how many tail bytes
// that dropped (satelliting the silent-discard fix: a follower diverging on
// a torn leader log must be diagnosable).
func openWAL(fops FileOps, path string) (*wal, []logRec, int64, error) {
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

func replayWAL(f WALFile) ([]logRec, int64, int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, err
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var recs []logRec
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
		if plen == 0 || plen > MaxRecordBytes {
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
		if errors.Is(err, ErrLegacyWAL) {
			return nil, 0, 0, fmt.Errorf("%w (record at byte %d)", err, offset)
		}
		if err != nil {
			return recs, offset, size - offset, nil
		}
		recs = append(recs, logRec{lsn: rec.LSN, payload: payload})
		offset += int64(8 + plen)
	}
}

// decodeWALRecord decodes one framed payload into a LogRecord: one
// Entries allocation, and the annotation and every key and value a slice
// of p. A pre-LSN record yields ErrLegacyWAL; any other malformed payload
// a plain error.
func decodeWALRecord(p []byte) (LogRecord, error) {
	lsn, annotation, count, rest, err := decodeWALHeader(p)
	if err != nil {
		return LogRecord{}, err
	}
	entries := make([]LogEntry, count)
	for i := range entries {
		var e walEntry
		if e, rest, err = decodeWALSubEntry(rest); err != nil {
			return LogRecord{}, err
		}
		entries[i] = LogEntry{Key: e.key, Value: e.value, Tombstone: e.tombstone}
	}
	if len(rest) != 0 {
		return LogRecord{}, errors.New("store: trailing bytes in wal record")
	}
	return LogRecord{LSN: lsn, Annotation: annotation, Entries: entries}, nil
}

// decodeWALHeader decodes a payload's framing up to its entries: the LSN,
// the annotation (a slice of p, nil when empty), the entry count, and the
// bytes holding the entries.
func decodeWALHeader(p []byte) (lsn uint64, annotation []byte, count uint64, rest []byte, err error) {
	if len(p) < 1 {
		return 0, nil, 0, nil, errors.New("store: short wal payload")
	}
	if p[0] < opBatchLSN {
		return 0, nil, 0, nil, ErrLegacyWAL
	}
	if p[0] != opBatchLSN {
		return 0, nil, 0, nil, fmt.Errorf("store: unknown wal record op %d", p[0])
	}
	rest = p[1:]
	lsn, n := binary.Uvarint(rest)
	if n <= 0 || lsn == 0 {
		return 0, nil, 0, nil, errors.New("store: bad wal record lsn")
	}
	rest = rest[n:]
	alen, n := binary.Uvarint(rest)
	if n <= 0 || alen > uint64(len(rest)-n) {
		return 0, nil, 0, nil, errors.New("store: bad wal annotation length")
	}
	rest = rest[n:]
	if alen > 0 {
		annotation = rest[:alen:alen]
	}
	rest = rest[alen:]
	count, n = binary.Uvarint(rest)
	if n <= 0 || count > uint64(len(rest)) {
		return 0, nil, 0, nil, errors.New("store: bad wal entry count")
	}
	return lsn, annotation, count, rest[n:], nil
}

// encodeLSNRecord frames entries (and the annotation) as one payload
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

// RecordBound bounds the framed payload of a record of entries operations
// whose keys, values and annotation total bytes. A batch whose bound fits
// under MaxRecordBytes can never trip writeRecordNoSync's cap — which lets
// a group commit (checkRecord) reject an oversize record BEFORE anything
// of the group reaches the buffered writer.
func RecordBound(entries, bytes int) int {
	return 1 + 3*binary.MaxVarintLen64 + bytes + entries*(1+2*binary.MaxVarintLen64)
}

// walLSNRecordBound is RecordBound of one record's annotation and entries.
func walLSNRecordBound(annotation []byte, entries []walEntry) int {
	bytes := len(annotation)
	for _, e := range entries {
		bytes += len(e.key) + len(e.value)
	}
	return RecordBound(len(entries), bytes)
}

// decodeWALSubEntry decodes one op+key[+value] unit and returns the
// remaining bytes. The key and value are capped slices of p.
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
	key := rest[:klen:klen]
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
		return walEntry{key: key, value: rest[:vlen:vlen]}, rest[vlen:], nil
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
	if len(buf) > MaxRecordBytes {
		return fmt.Errorf("store: wal record %d bytes exceeds %d-byte cap", len(buf), MaxRecordBytes)
	}
	// The header goes into the writer's spare buffer: no allocation.
	header := binary.LittleEndian.AppendUint32(w.w.AvailableBuffer(), crc32.Checksum(buf, castagnoli))
	header = binary.LittleEndian.AppendUint32(header, uint32(len(buf)))
	if _, err := w.w.Write(header); err != nil {
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

func (w *wal) close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
