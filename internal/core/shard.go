package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/keyspace"
	"repro/internal/values"
)

// shard is one hash partition of the user population. Everything keyed by
// user id lives here: the immutable read snapshot behind an atomic pointer —
// the one copy of the shard's profiles and CF rows — and the session-scoped
// values trackers, under one read-write mutex per partition. Writers build
// and publish the next snapshot under mu; readers only ever load snap and
// never touch mu (see snapshot.go and DESIGN.md §8).
//
// The partition function is a fixed bit-mixer over the user id, so a
// profile's shard is stable across restarts and independent of shard count
// only in the trivial sense — reopening a store with a different Shards
// value is fine, because shards are a memory layout, not a storage layout.
type shard struct {
	mu       sync.RWMutex
	trackers map[uint64]*values.Tracker // Human Values Scale, session-scoped

	// snap is the current immutable read snapshot; never nil after newShard.
	snap atomic.Pointer[shardSnap]
	// cache is the per-shard recommend cache (recommend.go); entries are
	// valid only for the exact (snapshot, recommend generation) pair they
	// were computed under. Never nil after newShard.
	cache atomic.Pointer[recCache]
}

func newShard(nbuckets int) *shard {
	sh := &shard{}
	sh.snap.Store(newShardSnap(nbuckets))
	sh.cache.Store(&recCache{})
	return sh
}

// shardCount normalizes the option: 0 → 16, otherwise the next power of
// two, capped at 1024.
func shardCount(n int) int {
	if n <= 0 {
		n = 16
	}
	if n > 1024 {
		n = 1024
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// bucketShift is how many low slot bits the shard index already consumes:
// log2(shards), capped at log2(NumSlots). A shard's snapshot holds
// NumSlots >> bucketShift buckets.
func bucketShift(shards int) uint {
	shift := uint(bits.TrailingZeros(uint(shards)))
	return min(shift, uint(bits.TrailingZeros(keyspace.NumSlots)))
}

// shardFor mixes the user id (splitmix64 finalizer) before masking, so
// sequential ids — the common registration pattern — spread evenly.
func (s *SPA) shardFor(userID uint64) *shard {
	return s.shards[s.shardIndexFor(userID)]
}

// shardIndexFor is shardFor by index — the ingest path keys its groups
// by index so lock acquisition can follow a deterministic
// (index-ascending) order. The mixer is keyspace.Mix64, shared with the
// cluster slot map: shard counts and keyspace.NumSlots are both powers of
// two, so a slot's users always share a shard (for Shards ≤ NumSlots) and a
// handoff can filter log records by slot.
func (s *SPA) shardIndexFor(userID uint64) int {
	return int(keyspace.Mix64(userID) & s.mask)
}
