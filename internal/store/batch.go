package store

import (
	"errors"
	"fmt"
	"slices"
)

// WriteBatch accumulates puts and deletes that commit atomically: Apply
// appends them to the WAL as a single CRC-framed record and installs them
// in the memtable under one lock acquisition. A crash mid-append discards
// the whole batch on replay — readers never observe a partially applied
// batch, before or after recovery.
//
// Put, Delete and SetAnnotation copy their arguments into the batch's
// arena, so the caller may reuse its slices at once. Apply encodes the
// arena's contents into the WAL record, and the memtable keeps slices of
// that record, not of the arena: after Apply returns, nothing the store
// holds refers to the batch.
//
// A WriteBatch is not safe for concurrent use; build it on one goroutine
// and hand it to Apply. It may be reused after Reset.
type WriteBatch struct {
	entries    []walEntry
	annotation []byte
	size       int
	// arena holds the copies; its unused capacity is the room left. A full
	// arena is replaced, never regrown in place, so queued entries keep
	// their bytes.
	arena []byte
}

// Grow reserves room for entries more operations and bytes more bytes of
// keys, values and annotation, so a caller that knows the batch's size
// fills it with two allocations.
func (b *WriteBatch) Grow(entries, bytes int) {
	b.entries = slices.Grow(b.entries, entries)
	if cap(b.arena)-len(b.arena) < bytes {
		b.arena = make([]byte, 0, bytes)
	}
}

// reserve makes room for n more arena bytes. A full arena is replaced,
// sized from the bytes queued so far (so the sizes double), or to n alone
// when n is larger.
func (b *WriteBatch) reserve(n int) {
	if cap(b.arena)-len(b.arena) < n {
		b.arena = make([]byte, 0, max(n, b.size))
	}
}

// copyIn appends p to the arena, which has room for it, and returns the
// copy, capped so an append to it can never reach a neighbour.
func (b *WriteBatch) copyIn(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	start := len(b.arena)
	b.arena = append(b.arena, p...)
	return b.arena[start:len(b.arena):len(b.arena)]
}

// Put queues a key/value pair. Both slices are copied immediately.
func (b *WriteBatch) Put(key, value []byte) {
	b.reserve(len(key) + len(value))
	b.entries = append(b.entries, walEntry{key: b.copyIn(key), value: b.copyIn(value)})
	b.size += len(key) + len(value)
}

// Delete queues a tombstone for key. The slice is copied immediately.
func (b *WriteBatch) Delete(key []byte) {
	b.reserve(len(key))
	b.entries = append(b.entries, walEntry{key: b.copyIn(key), tombstone: true})
	b.size += len(key)
}

// SetAnnotation attaches an opaque blob to the batch's log record. The
// engine persists it in the WAL framing and delivers it to log tails
// (LogRecord.Annotation) but never interprets it — replay ignores it. The
// ingest path uses it to ship derived state (the wave's interaction
// events) alongside the key updates so a replica can rebuild what the
// key/value entries alone cannot express. The slice is copied.
func (b *WriteBatch) SetAnnotation(data []byte) {
	b.reserve(len(data))
	b.annotation = b.copyIn(data)
}

// Len returns the number of queued operations.
func (b *WriteBatch) Len() int { return len(b.entries) }

// Size returns the queued payload bytes (keys + values), a cheap proxy for
// how much WAL and memtable space Apply will consume.
func (b *WriteBatch) Size() int { return b.size }

// Reset clears the batch for reuse, keeping allocated capacity. Rewinding
// the arena is safe because nothing the store holds refers to it.
func (b *WriteBatch) Reset() {
	b.entries = b.entries[:0]
	b.annotation = nil
	b.size = 0
	b.arena = b.arena[:0]
}

// Apply commits the batch: ApplyAll of a one-batch sequence. Either every
// operation becomes durable and visible, or (on error or crash) none do. An
// empty batch is a no-op.
func (db *DB) Apply(b *WriteBatch) error {
	return db.ApplyAll([]*WriteBatch{b})
}

// ApplyAll commits a sequence of batches as one ordered group. The
// guarantees a pipelined caller builds on:
//
//   - Order: the batches reach the WAL in slice order, under one lock
//     acquisition — no other writer's record interleaves, and two ApplyAll
//     calls serialize wholesale. Crash replay therefore recovers a PREFIX
//     of the sequence: batch i+1's effects are never durable without batch
//     i's. An ingest wave too large for one record, a follower's shipped
//     run and a handoff target's filtered waves all rely on it.
//   - Atomicity per batch: each batch is its own CRC-framed replay record,
//     exactly as Apply writes it — a torn tail discards whole batches,
//     never partial ones.
//   - One sync: with SyncWrites the whole sequence is fsynced once, after
//     the last append — the group-commit economics that let a run of K
//     records pay one device flush instead of K.
//   - All-or-nothing visibility: on any error nothing is installed in the
//     memtable and the caller must treat every batch as not applied. (As
//     with Apply, a sync failure cannot un-append: records already written
//     may still surface after a crash-restart even though the call
//     reported failure — the standard WAL caveat for unacknowledged
//     writes.) A failed append, flush or sync also disables the log
//     (ErrWALFailed) until the store is reopened: the failed record's
//     bytes may already be durable under an LSN the caller was told
//     failed, and appending a NEW record under that LSN would make the
//     log ambiguous at that position — a replication tail and crash
//     replay could then resolve the same LSN to different contents.
//     Reopening replays what actually landed and continues past it.
//
// Empty batches are skipped; an all-empty (or empty) sequence is a no-op.
func (db *DB) ApplyAll(batches []*WriteBatch) error {
	return db.ApplyAllTagged(batches, 0)
}

// ApplyAllTagged is ApplyAll with a serving-layer wave tag: the sequence's
// single WAL sync reports to the engine observer (observer.go) carrying
// wave, so the serving layer can attribute the fsync stall back to the
// group commit that paid it. A zero wave is untagged.
func (db *DB) ApplyAllTagged(batches []*WriteBatch, wave uint64) error {
	group := make([]groupRecord, 0, len(batches))
	for _, b := range batches {
		if b.Len() == 0 {
			continue
		}
		if err := checkRecord(b.annotation, b.entries); err != nil {
			return err
		}
		group = append(group, groupRecord{annotation: b.annotation, entries: b.entries})
	}
	if len(group) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	for i := range group {
		group[i].lsn = db.lastLSN + 1 + uint64(i)
	}
	return db.commitGroupLocked(group, wave)
}

// groupRecord is one record of a group commit.
type groupRecord struct {
	lsn        uint64
	annotation []byte
	entries    []walEntry
}

// checkRecord validates one record of a group before anything of the group
// reaches the WAL: no empty keys, and a framed size under the record cap. A
// mid-group cap error would not be a sticky writer error, so the group's
// earlier records would otherwise sit valid in the buffer and become
// durable on the next flush — a group the caller was told failed.
func checkRecord(annotation []byte, entries []walEntry) error {
	for _, e := range entries {
		if len(e.key) == 0 {
			return errors.New("store: empty key in batch")
		}
	}
	if bound := walLSNRecordBound(annotation, entries); bound > MaxRecordBytes {
		return fmt.Errorf("store: batch record ~%d bytes exceeds %d-byte cap", bound, MaxRecordBytes)
	}
	return nil
}

// commitGroupLocked is the one group commit of the store — ApplyAll,
// ApplyReplicated, Put/Delete and RestoreSnapshot all write through it:
// append every record, pay one sync (under SyncWrites, tagged with wave),
// and only then install the records' entries and publish the records to
// the shippable history, in order — a tail never streams a record this
// call reports as failed. On any error nothing is installed or published.
// The caller holds db.mu, has checked every record (checkRecord), and has
// stamped them with the LSNs that extend lastLSN contiguously — or, for a
// restore, with the one snapshot LSN at or past it. group is not empty.
func (db *DB) commitGroupLocked(group []groupRecord, wave uint64) error {
	// Each record enters the active-log mirror as it is appended. Nothing
	// reads the mirror before this returns — readers and tails take db.mu —
	// and a failure cuts it back to the committed records.
	committed := len(db.activeRecs)
	for _, r := range group {
		payload := encodeLSNRecord(r.lsn, r.annotation, r.entries)
		if err := db.wal.writeRecordNoSync(payload); err != nil {
			db.activeRecs = db.activeRecs[:committed]
			return err
		}
		db.activeRecs = append(db.activeRecs, logRec{lsn: r.lsn, payload: payload})
	}
	if db.opts.SyncWrites {
		db.syncWave = wave
		err := db.wal.sync()
		db.syncWave = 0
		if err != nil {
			db.activeRecs = db.activeRecs[:committed]
			return err
		}
	}
	for _, r := range db.activeRecs[committed:] {
		db.installLocked(r.payload)
	}
	db.lastLSN = group[len(group)-1].lsn
	db.notifyTailLocked()
	if db.mem.bytes >= db.opts.MemtableBytes {
		return db.flushLocked()
	}
	return nil
}

// installLocked applies one committed record's entries to the memtable,
// which keeps slices of payload rather than copies: payload must be a
// record the active-log mirror (activeRecs) holds, so it lives until the
// flush that retires the memtable. The caller holds db.mu and has made
// the record durable; payload is well formed (the store encoded it, or
// replay decoded it).
func (db *DB) installLocked(payload []byte) {
	_, _, count, rest, _ := decodeWALHeader(payload)
	for ; count > 0; count-- {
		var e walEntry
		e, rest, _ = decodeWALSubEntry(rest)
		db.mem.upsert(e.key, e.value, e.tombstone)
	}
}
