package store

import (
	"errors"
	"fmt"
)

// WriteBatch accumulates puts and deletes that commit atomically: Apply
// appends them to the WAL as a single CRC-framed record and installs them
// in the memtable under one lock acquisition. A crash mid-append discards
// the whole batch on replay — readers never observe a partially applied
// batch, before or after recovery.
//
// A WriteBatch is not safe for concurrent use; build it on one goroutine
// and hand it to Apply. It may be reused after Reset.
type WriteBatch struct {
	entries    []walEntry
	annotation []byte
	size       int
}

// Put queues a key/value pair. Both slices are copied immediately.
func (b *WriteBatch) Put(key, value []byte) {
	b.entries = append(b.entries, walEntry{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
	b.size += len(key) + len(value)
}

// Delete queues a tombstone for key. The slice is copied immediately.
func (b *WriteBatch) Delete(key []byte) {
	b.entries = append(b.entries, walEntry{
		key:       append([]byte(nil), key...),
		tombstone: true,
	})
	b.size += len(key)
}

// SetAnnotation attaches an opaque blob to the batch's log record. The
// engine persists it in the WAL framing and delivers it to log tails
// (LogRecord.Annotation) but never interprets it — replay ignores it. The
// ingest path uses it to ship derived state (the wave's interaction
// events) alongside the key updates so a replica can rebuild what the
// key/value entries alone cannot express. The slice is copied.
func (b *WriteBatch) SetAnnotation(data []byte) {
	b.annotation = append([]byte(nil), data...)
}

// Len returns the number of queued operations.
func (b *WriteBatch) Len() int { return len(b.entries) }

// Size returns the queued payload bytes (keys + values), a cheap proxy for
// how much WAL and memtable space Apply will consume.
func (b *WriteBatch) Size() int { return b.size }

// Reset clears the batch for reuse, keeping allocated capacity.
func (b *WriteBatch) Reset() {
	b.entries = b.entries[:0]
	b.annotation = nil
	b.size = 0
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
//     i's. This is the store-level ordering the coalescer's commit pipeline
//     relies on for same-shard WriteBatches of successive waves.
//   - Atomicity per batch: each batch is its own CRC-framed replay record,
//     exactly as Apply writes it — a torn tail discards whole batches,
//     never partial ones.
//   - One sync: with SyncWrites the whole sequence is fsynced once, after
//     the last append — the group-commit economics that let a wave of K
//     shard batches pay one device flush instead of K.
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
	if bound := walLSNRecordBound(annotation, entries); bound > maxWALRecord {
		return fmt.Errorf("store: batch record ~%d bytes exceeds %d-byte cap", bound, maxWALRecord)
	}
	return nil
}

// commitGroupLocked is the group commit ApplyAll and ApplyReplicated share:
// append every record, pay one sync (under SyncWrites, tagged with wave),
// and only then install the records' entries and publish the records to
// the shippable history, in order — a tail never streams a record this
// call reports as failed. On any error nothing is installed or published.
// The caller holds db.mu, has checked every record (checkRecord), and has
// stamped them with the LSNs that extend lastLSN contiguously.
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
	for _, r := range group {
		db.installLocked(r.entries)
	}
	db.lastLSN = group[len(group)-1].lsn
	db.notifyTailLocked()
	if db.mem.bytes >= db.opts.MemtableBytes {
		return db.flushLocked()
	}
	return nil
}

// installLocked applies one record's entries to the memtable; the caller
// holds db.mu and has already made the record durable.
func (db *DB) installLocked(entries []walEntry) {
	for _, e := range entries {
		if e.tombstone {
			db.mem.delete(e.key)
		} else {
			db.mem.put(e.key, e.value)
		}
	}
}
