package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/sum"
)

// Epoch-based immutable read snapshots (DESIGN.md §8). The snapshot is the
// only copy of a shard's user state: every write path — Register,
// SubmitAnswer, Reward, Punish, the ingest commit, replicated and handoff
// waves, slot drops — builds the shard's next snapshot from the
// current one while holding the shard's write lock, and every read path
// loads the current snapshot through an atomic pointer and never touches
// sh.mu. A snapshot's user state is immutable after publish, and so is
// every profile it points to: writers change a profile by installing a
// modified copy, never by mutating the published value. Only the rank
// index readers attach to it (recommend.go) changes after publish.
//
// A snapshot is a fixed array of copy-on-write buckets, one per keyspace
// slot resident in the shard (256/S buckets for S ≤ 256 shards, one per
// shard above that), and each bucket is split into bucketPages pages by the
// hash bits above the slot. A publish clones only the buckets its changes
// fall into — and within them only the touched pages — and shares every
// other bucket and page with the previous snapshot by pointer: its cost is
// O(touched pages × page size), not O(shard).
//
// The global epoch counts publishes. It is process-local: reopening a store
// replays the durable profiles into a fresh epoch-1 snapshot, and cross-
// restart ordering belongs to the WAL sequence, not the epoch. Within a
// process the epoch is strictly monotone, so "did anything change since I
// looked" is one atomic load.

// bucketPages splits a slot's bucket so that a publish at a million users
// copies a 256-entry page rather than the slot's 4,096 entries. Cloning a
// bucket copies its page headers (768 bytes); the pages themselves are
// shared until touched.
const bucketPages = 16

// inlineBuckets is how many buckets a snapshot holds inside its own
// allocation: a shard's whole share of the keyspace at 16 shards (the
// default) or more.
const inlineBuckets = 16

// shardSnap is one shard's immutable read snapshot. buckets points into
// inline whenever the shard holds at most inlineBuckets buckets, so a
// publish allocates one header, not a header and a bucket array; a
// shardSnap is therefore never copied by value.
type shardSnap struct {
	buckets []*bucket
	inline  [inlineBuckets]*bucket
	// index is the rank index readers rank this shard from (recommend.go):
	// inherited from the previous snapshot by clone, replaced by a reader's
	// CAS when rankIndexFor rebuilds it. ranked records that a reader has
	// ranked this snapshot. They are the only fields of a published
	// snapshot that change, and only readers change them.
	index  atomic.Pointer[rankIndex]
	ranked atomic.Bool
}

// bucket is one keyspace slot's share of a shard: its resident profiles and
// its users' accumulated CF interaction rows. Each page is sorted by user
// id, so cloning a page is one allocation and a lookup is a binary search.
// Immutable once published.
type bucket struct {
	profiles [bucketPages][]profEntry
	// rows is the cumulative user → action → weight matrix the recommender
	// ranks from. There is no mutable copy anywhere: a publish clones only
	// the rows its wave touched.
	rows [bucketPages][]rowEntry
}

type profEntry struct {
	id uint64
	p  *sum.Profile
}

type rowEntry struct {
	id   uint64
	row  []actionWeight // sorted by action
	norm float64        // √Σw², summed in action order (as cf.Interactions.Freeze)
}

type actionWeight struct {
	action uint32
	w      float64
}

// emptyBucket is shared by every bucket that holds nothing.
var emptyBucket = &bucket{}

// newShardSnap returns an empty shard's snapshot: nbuckets empty buckets.
func newShardSnap(nbuckets int) *shardSnap {
	sn := (&shardSnap{buckets: make([]*bucket, nbuckets)}).clone()
	for i := range sn.buckets {
		sn.buckets[i] = emptyBucket
	}
	return sn
}

// clone returns the next snapshot's starting point: a new header sharing
// every bucket and the rank index with sn, which the caller swaps buckets of
// before it publishes.
func (sn *shardSnap) clone() *shardSnap {
	next := &shardSnap{}
	if n := len(sn.buckets); n <= inlineBuckets {
		next.buckets = next.inline[:n:n]
	} else {
		next.buckets = make([]*bucket, n)
	}
	copy(next.buckets, sn.buckets)
	next.index.Store(sn.index.Load())
	return next
}

// cell addresses one page of one bucket in a shard snapshot.
type cell struct{ bucket, page int }

// profile returns the user's profile in this snapshot, nil when absent.
func (sn *shardSnap) profile(c cell, id uint64) *sum.Profile {
	pg := sn.buckets[c.bucket].profiles[c.page]
	if i, ok := slices.BinarySearchFunc(pg, id, cmpProf); ok {
		return pg[i].p
	}
	return nil
}

// residents counts the bucket's profiles.
func (b *bucket) residents() int {
	n := 0
	for _, pg := range b.profiles {
		n += len(pg)
	}
	return n
}

func cmpProf(e profEntry, id uint64) int { return cmp.Compare(e.id, id) }
func cmpRow(e rowEntry, id uint64) int   { return cmp.Compare(e.id, id) }

// place hashes the user id once and returns its shard index and its cell
// in the shard's snapshot: the bucket is the slot's bits above the shard
// bits (one slot per bucket for S ≤ NumSlots shards, else the shard's only
// bucket), the page the hash bits above the slot.
func (s *SPA) place(userID uint64) (shardIdx int, c cell) {
	h := keyspace.Mix64(userID)
	return int(h & s.mask), cell{
		bucket: int(h&(keyspace.NumSlots-1)) >> s.bucketShift,
		page:   int(h/keyspace.NumSlots) % bucketPages,
	}
}

// locate is place resolved to the shard itself.
func (s *SPA) locate(userID uint64) (*shard, cell) {
	i, c := s.place(userID)
	return s.shards[i], c
}

// residentLocked returns the user's current profile (nil when absent); the
// caller holds sh.mu, so the snapshot cannot move under it.
func (s *SPA) residentLocked(sh *shard, userID uint64) *sum.Profile {
	_, c := s.place(userID)
	return sh.snap.Load().profile(c, userID)
}

// profChange is one profile to install (p != nil) or remove (p == nil).
type profChange struct {
	at cell
	id uint64
	p  *sum.Profile
}

// rowDelta is one interaction event's contribution to a CF row.
type rowDelta struct {
	at     cell
	id     uint64
	action uint32
	w      float64
}

func cmpCell(a, b cell) int {
	return cmp.Or(cmp.Compare(a.bucket, b.bucket), cmp.Compare(a.page, b.page))
}

// publishShardLocked installs sh's next snapshot: the current one with the
// given profile changes applied and the given interaction events folded
// into the CF rows. Only the pages the changes and events fall into are
// rebuilt; every other page and bucket is shared. A later change to the
// same user wins over an earlier one. changes is reordered in place.
// deltas is the caller's scratch for the events' CF deltas, overwritten
// here: a buffer that outlives one publish (a wave's or a shipped run's),
// or nil to allocate one when needed. The caller holds sh.mu for writing.
func (s *SPA) publishShardLocked(sh *shard, changes []profChange, events []taggedEvent, deltas []rowDelta) {
	for i := range changes {
		_, changes[i].at = s.place(changes[i].id)
	}
	slices.SortStableFunc(changes, func(a, b profChange) int {
		return cmp.Or(cmpCell(a.at, b.at), cmp.Compare(a.id, b.id))
	})
	deltas = deltas[:0]
	for _, te := range events {
		w := interactionWeight(te.Type)
		if w == 0 || int(te.Action) >= lifelog.ActionUniverse {
			continue
		}
		if cap(deltas) == 0 {
			deltas = make([]rowDelta, 0, len(events))
		}
		_, at := s.place(te.UserID)
		deltas = append(deltas, rowDelta{at: at, id: te.UserID, action: te.Action, w: w})
	}
	// Stable: a user's deltas keep event order, so each weight sums in the
	// order the events arrived.
	slices.SortStableFunc(deltas, func(a, b rowDelta) int {
		return cmp.Or(cmpCell(a.at, b.at), cmp.Compare(a.id, b.id))
	})

	prev := sh.snap.Load()
	next := prev.clone()
	added := 0
	for ci, di := 0, 0; ci < len(changes) || di < len(deltas); {
		at := cell{bucket: keyspace.NumSlots}
		if ci < len(changes) {
			at = changes[ci].at
		}
		if di < len(deltas) && cmpCell(deltas[di].at, at) < 0 {
			at = deltas[di].at
		}
		ce, de := ci, di
		for ce < len(changes) && changes[ce].at == at {
			ce++
		}
		for de < len(deltas) && deltas[de].at == at {
			de++
		}
		nb := next.buckets[at.bucket]
		if nb == prev.buckets[at.bucket] {
			cp := *nb
			nb = &cp
			next.buckets[at.bucket] = nb
		}
		if ce > ci {
			old := nb.profiles[at.page]
			nb.profiles[at.page] = mergeProfiles(old, changes[ci:ce])
			added += len(nb.profiles[at.page]) - len(old)
		}
		if de > di {
			nb.rows[at.page] = mergeRows(nb.rows[at.page], deltas[di:de])
		}
		ci, di = ce, de
	}
	s.users.Add(int64(added))
	s.installSnapLocked(sh, next)
}

// installSnapLocked makes next the shard's read snapshot and then bumps the
// epoch, in that order: the recommend cache keys on the epoch a reader
// loaded before its snapshots, so an entry cached under the new epoch was
// ranked from this snapshot or a later one.
func (s *SPA) installSnapLocked(sh *shard, next *shardSnap) {
	sh.snap.Store(next)
	s.epoch.Add(1)
}

// mergeProfiles returns a new sorted page: prev with the id-sorted changes
// applied (the last change to an id wins).
func mergeProfiles(prev []profEntry, changes []profChange) []profEntry {
	out := make([]profEntry, 0, len(prev)+len(changes))
	k := 0
	for i, c := range changes {
		if i+1 < len(changes) && changes[i+1].id == c.id {
			continue
		}
		n, found := slices.BinarySearchFunc(prev[k:], c.id, cmpProf)
		out = append(out, prev[k:k+n]...)
		k += n
		if found {
			k++
		}
		if c.p != nil {
			out = append(out, profEntry{id: c.id, p: c.p})
		}
	}
	return append(out, prev[k:]...)
}

// mergeRows returns a new sorted row page: prev with the id-sorted deltas
// folded in. Each touched user's row is cloned once; untouched rows are
// shared.
func mergeRows(prev []rowEntry, deltas []rowDelta) []rowEntry {
	users := 0
	for i := range deltas {
		if i == 0 || deltas[i].id != deltas[i-1].id {
			users++
		}
	}
	out := make([]rowEntry, 0, len(prev)+users)
	k := 0
	for i := 0; i < len(deltas); {
		id := deltas[i].id
		end := i + 1
		for end < len(deltas) && deltas[end].id == id {
			end++
		}
		n, found := slices.BinarySearchFunc(prev[k:], id, cmpRow)
		out = append(out, prev[k:k+n]...)
		k += n
		var old []actionWeight
		if found {
			old = prev[k].row
			k++
		}
		row := make([]actionWeight, len(old), len(old)+end-i)
		copy(row, old)
		for _, d := range deltas[i:end] {
			j, hit := slices.BinarySearchFunc(row, d.action, func(a actionWeight, action uint32) int {
				return cmp.Compare(a.action, action)
			})
			if hit {
				row[j].w += d.w
			} else {
				row = slices.Insert(row, j, actionWeight{action: d.action, w: d.w})
			}
		}
		var sq float64
		for _, aw := range row {
			sq += aw.w * aw.w
		}
		out = append(out, rowEntry{id: id, row: row, norm: math.Sqrt(sq)})
		i = end
	}
	return append(out, prev[k:]...)
}

// viewProfile returns a stable profile for reading: a lock-free load whose
// result is frozen, safe to read concurrently with any writer.
func (s *SPA) viewProfile(userID uint64) (*sum.Profile, error) {
	sh, c := s.locate(userID)
	p := sh.snap.Load().profile(c, userID)
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoProfile, userID)
	}
	return p, nil
}

// SnapshotEpoch reports the current read-snapshot epoch: 1 after New
// (including a reopen's replay), +1 per shard publish. Monotone within the
// process; see the package comment in this file for the restart contract.
func (s *SPA) SnapshotEpoch() uint64 {
	return s.epoch.Load()
}

// ReadStats snapshots the read-path counters for /metrics.
type ReadStats struct {
	// SnapshotEpoch is SnapshotEpoch().
	SnapshotEpoch uint64
	// ReadCacheHits / ReadCacheMisses count recommend-cache outcomes.
	// Process-local, reset to zero on restart.
	ReadCacheHits   uint64
	ReadCacheMisses uint64
	// RankIndexHits / RankIndexMisses count shard rankings — one per shard
	// per recommend-cache miss of a user with a CF row — served by the
	// shard snapshot's rank index and by a scan of its rows;
	// RankIndexBuilds counts rank index builds (recommend.go).
	// Process-local.
	RankIndexHits   uint64
	RankIndexMisses uint64
	RankIndexBuilds uint64
}

// ReadStats reports the read-path counters.
func (s *SPA) ReadStats() ReadStats {
	return ReadStats{
		SnapshotEpoch:   s.epoch.Load(),
		ReadCacheHits:   s.readCacheHits.Load(),
		ReadCacheMisses: s.readCacheMisses.Load(),
		RankIndexHits:   s.rankIndexHits.Load(),
		RankIndexMisses: s.rankIndexMisses.Load(),
		RankIndexBuilds: s.rankIndexBuilds.Load(),
	}
}
