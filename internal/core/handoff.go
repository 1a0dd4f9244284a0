package core

import (
	"errors"
	"slices"

	"repro/internal/keyspace"
	"repro/internal/store"
)

// Shard handoff (DESIGN.md §10). Moving a set of keyspace slots between
// cluster nodes reuses the replication machinery with one twist on each
// side:
//
//   - The source ships only the records of the moving slots. Both the
//     snapshot export and the tailed waves pass through a slot filter —
//     profile keys name their user ("sum/" + id), the user names the slot
//     (keyspace.Partition), and wave annotations are re-encoded with only
//     the surviving interaction events. Keys outside the profile key space
//     never move; they are node-local state.
//   - The target applies shipped records as LOCAL commits. A follower
//     mirrors the leader's log positions exactly (store.ApplyReplicated),
//     but a handoff target has its own live log, so each filtered wave
//     becomes an ordinary WriteBatch that the store stamps with the next
//     local LSN. The source's LSNs still flow back as stream acks — they
//     are positions in the source's log, not the target's.
//
// ApplyHandoffWaves shares its decode, group and install half with
// ApplyReplicatedWaves (applyShipped), under the same index-ascending shard
// lock order, so it is deadlock-free against local commits and follower
// applies alike; only the store write differs.

// entrySlot resolves a store key to its keyspace slot; ok is false for
// keys outside the profile key space.
func entrySlot(key []byte) (int, bool) {
	id, ok := sumKeyUser(key)
	if !ok {
		return 0, false
	}
	return keyspace.Partition(id), true
}

// FilterEntriesForSlots keeps the entries whose user belongs to one of the
// given slots. Keys outside the profile key space are dropped: they carry
// node-local state and never travel in a handoff.
func FilterEntriesForSlots(entries []store.LogEntry, slots *keyspace.SlotSet) []store.LogEntry {
	out := make([]store.LogEntry, 0, len(entries))
	for _, e := range entries {
		if slot, ok := entrySlot(e.Key); ok && slots.Has(slot) {
			out = append(out, e)
		}
	}
	return out
}

// FilterWaveForSlots projects one log record onto a slot set: entries are
// filtered by their user's slot, and the annotation is re-encoded with only
// the interaction events of users in those slots. Both results are empty
// when the wave touched none of the slots — the caller skips shipping it
// (the target never sees the record, which is fine because handoff waves
// carry no positions the target must stay contiguous with).
func FilterWaveForSlots(annotation []byte, entries []store.LogEntry, slots *keyspace.SlotSet) ([]byte, []store.LogEntry, error) {
	kept := FilterEntriesForSlots(entries, slots)
	events, err := decodeWaveAnnotation(annotation)
	if err != nil {
		return nil, nil, err
	}
	var keptEvents []taggedEvent
	for _, te := range events {
		if slots.Has(keyspace.Partition(te.UserID)) {
			keptEvents = append(keptEvents, te)
		}
	}
	var ann []byte
	if len(keptEvents) > 0 {
		ann = encodeWaveAnnotation(keptEvents)
	}
	return ann, kept, nil
}

// ExportSlotSnapshot captures the live profile pairs of the given slots and
// the log position the capture is current through — the bootstrap half of a
// handoff stream, as ExportSnapshot is for a full follower.
func (s *SPA) ExportSlotSnapshot(slots *keyspace.SlotSet) ([]store.LogEntry, uint64, error) {
	pairs, lsn, err := s.ExportSnapshot()
	if err != nil {
		return nil, 0, err
	}
	return FilterEntriesForSlots(pairs, slots), lsn, nil
}

// ApplyHandoffWave applies one slot-filtered shipped record (or snapshot
// chunk) on a handoff target: a one-record ApplyHandoffWaves.
func (s *SPA) ApplyHandoffWave(annotation []byte, entries []store.LogEntry) error {
	return s.ApplyHandoffWaves([]store.LogRecord{{Annotation: annotation, Entries: entries}})
}

// ApplyHandoffWaves applies a run of slot-filtered shipped records on a
// handoff target as one local group commit: one store.ApplyAll with one
// WriteBatch per record (the store stamps each with the next local LSN —
// the source's positions have no meaning in this log), then install into
// shard memory and publish read snapshots exactly as ApplyReplicatedWaves
// does, with the annotations' interaction events folded into the CF matrix
// and re-persisted for this node's own future followers.
func (s *SPA) ApplyHandoffWaves(recs []store.LogRecord) error {
	if s.db == nil {
		return errors.New("core: handoff requires a durable store")
	}
	batches := make([]*store.WriteBatch, len(recs))
	for i, r := range recs {
		if len(r.Entries) == 0 {
			return errors.New("core: empty handoff wave")
		}
		b := new(store.WriteBatch)
		b.SetAnnotation(r.Annotation)
		for _, e := range r.Entries {
			if e.Tombstone {
				b.Delete(e.Key)
			} else {
				b.Put(e.Key, e.Value)
			}
		}
		batches[i] = b
	}
	return s.applyShipped(recs, true, func() error { return s.db.ApplyAll(batches) })
}

// DropSlotUsers removes every resident user of the given slots — profiles
// and CF interaction rows — from shard memory and publishes fresh read
// snapshots: the source's final step after ownership flips to the target.
// Durable records of the dropped users stay in the source's log (rewriting
// history would break its own followers); they are dead weight until
// compaction and are filtered out again if the slots ever hand back.
// Returns the number of users dropped.
func (s *SPA) DropSlotUsers(slots *keyspace.SlotSet) int {
	// A slot is exactly one snapshot bucket in each shard that holds it —
	// shard slot&mask for S ≤ NumSlots shards, every shard ≡ slot (mod
	// NumSlots) above that — so dropping it swaps those buckets for the
	// empty one: O(slots), whatever the population.
	byShard := make(map[int][]int)
	for _, slot := range slots.Slots() {
		for idx := slot & int(s.mask); idx < len(s.shards); idx += keyspace.NumSlots {
			byShard[idx] = append(byShard[idx], slot>>s.bucketShift)
		}
	}
	dropped, changed := 0, false
	for idx, buckets := range byShard {
		sh := s.shards[idx]
		sh.mu.Lock()
		prev := sh.snap.Load()
		var next *shardSnap
		for _, b := range buckets {
			if prev.buckets[b] == emptyBucket {
				continue
			}
			if next == nil {
				next = &shardSnap{buckets: slices.Clone(prev.buckets)}
			}
			n := prev.buckets[b].residents()
			dropped += n
			s.users.Add(-int64(n))
			next.buckets[b] = emptyBucket
		}
		if next != nil {
			s.installSnapLocked(sh, next)
			changed = true
		}
		sh.mu.Unlock()
	}
	if changed {
		s.invalidateRecommender()
	}
	return dropped
}
