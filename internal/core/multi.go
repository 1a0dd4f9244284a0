package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/sum"
)

// ErrBadStream tags ingest failures caused by the submitted events
// themselves (out-of-order per-user timestamps, invalid events) as opposed
// to store failures. The serving layer maps it to the submitter's own 400;
// everything else on an IngestOutcome is the server's fault.
var ErrBadStream = errors.New("core: malformed event stream")

// The group-commit ingest path is split at the CPU/IO boundary, so the
// serving layer's coalescer can overlap the two halves of successive waves:
//
//   - PrepareMulti runs event validation, sessionization and feature
//     extraction under shard READ locks, mutating nothing.
//   - PreparedMulti.Commit persists every shard's staged updates as one
//     ordered store.ApplyAll sequence (one WAL sync for the whole wave)
//     and only then installs the staged state in shard memory.
//
// The next wave's prepare can run while this wave's commit waits on the
// disk — fully so when the waves touch disjoint shards; a prepare needing a
// shard the commit holds write-locked waits at that shard's RLock.
//
// Updates are staged and installed only after the store write succeeds: a
// failed write leaves shard memory exactly as it was, so the reported "not
// applied" outcome is true in memory as well as on disk.

// BatchIngest is the high-throughput ingest facade: events are grouped by
// owning shard (preserving per-user order, which sessionization requires),
// the groups are prepared concurrently, and the whole batch commits as one
// store sequence with one WAL sync.
//
// Semantics match a sequential IngestEvents call: per-user results depend
// only on that user's events, so the fan-out is invisible in the profiles
// (see TestShardedMatchesSingleShard). A store failure applies nothing, in
// any shard. Events of unregistered users are counted and skipped.
func (s *SPA) BatchIngest(events []lifelog.Event) (processed, skippedUnknown int, err error) {
	if len(events) == 0 {
		return 0, 0, nil
	}
	out := s.PrepareMulti([][]lifelog.Event{events}).Commit()
	return out[0].Processed, out[0].SkippedUnknown, out[0].Err
}

// PrepareMulti applies several independently submitted event batches
// (typically concurrent network requests, merged by the serving layer's
// coalescer) as one fan-out over the shards; its CPU-bound half runs here —
// validation, sessionization, feature extraction, per-batch attribution —
// without mutating anything: shards are only read-locked and the store is
// not touched. The staged result commits later via PreparedMulti.Commit.
// Each input batch gets its own IngestOutcome, as if the batches had been
// ingested separately:
//
//   - Counts are attributed per batch: an event is processed or
//     skipped-as-unknown on behalf of the batch that carried it.
//   - A batch whose events make the merged per-user stream malformed
//     (out-of-order timestamps, invalid events) is excluded and charged the
//     error; the surviving batches are re-validated and applied without it.
//     The prepare pass mutates nothing, so exclusion is a pure retry.
func (s *SPA) PrepareMulti(batches [][]lifelog.Event) *PreparedMulti {
	pm := &PreparedMulti{s: s, out: make([]IngestOutcome, len(batches))}
	groups, now := s.groupByShard(batches)
	if len(groups) == 0 {
		return pm
	}
	if len(groups) == 1 {
		for _, g := range groups {
			sh := s.shards[g.shardIdx]
			sh.mu.RLock()
			s.prepareShardLocked(g, len(batches), now)
			sh.mu.RUnlock()
			pm.groups = append(pm.groups, g)
		}
	} else {
		var wg sync.WaitGroup
		for _, g := range groups {
			wg.Add(1)
			go func(g *preparedGroup) {
				defer wg.Done()
				sh := s.shards[g.shardIdx]
				sh.mu.RLock()
				s.prepareShardLocked(g, len(batches), now)
				sh.mu.RUnlock()
			}(g)
			pm.groups = append(pm.groups, g)
		}
		wg.Wait()
	}
	// Deterministic shard order: Commit acquires the write locks in this
	// order, so concurrent Commits can never deadlock against each other.
	sort.Slice(pm.groups, func(i, j int) bool { return pm.groups[i].shardIdx < pm.groups[j].shardIdx })
	return pm
}

// PreparedMulti is the staged, uncommitted result of PrepareMulti: per-batch
// attribution plus every shard's pending profile updates. Nothing is
// visible — in shard memory or in the store — until Commit.
type PreparedMulti struct {
	s         *SPA
	out       []IngestOutcome
	groups    []*preparedGroup // sorted by shard index
	committed bool
	wave      uint64
}

// SetWaveID tags the prepared wave for observability: Commit's store
// sequence carries the tag to the WAL sync (store.ApplyAllTagged), so the
// engine observer can attribute the fsync back to this wave. Call between
// PrepareMulti and Commit; zero (the default) means untagged.
func (pm *PreparedMulti) SetWaveID(id uint64) { pm.wave = id }

// Shards reports how many shards the wave touches.
func (pm *PreparedMulti) Shards() int { return len(pm.groups) }

// Commit persists and installs the staged wave, returning the per-batch
// outcomes.
//
// The durable path commits every shard's WriteBatch as one ordered
// store.ApplyAll sequence: one WAL sync for the whole wave, with the
// store guaranteeing the batches reach the log in shard order and that
// crash replay recovers a prefix. All touched shards stay write-locked
// across the sequence, so no other writer's store record can interleave
// with the wave's and memory-vs-durable ordering per user is preserved.
// A store failure fails the whole wave (every contributing batch is
// charged); staged state is then discarded, leaving shard memory untouched.
//
// Callers that overlap several PreparedMulti instances must Commit them in
// prepare order when their batches may share users — the coalescer does
// (single committer, FIFO waves). Independent callers (concurrent
// BatchIngest) need no coordination: a staged digest depends only on its
// own batch's events, and the install re-reads each resident profile under
// the write lock. Commit must be called at most once.
func (pm *PreparedMulti) Commit() []IngestOutcome {
	if pm.committed {
		panic("core: PreparedMulti committed twice")
	}
	pm.committed = true
	s := pm.s
	if len(pm.groups) == 0 {
		return pm.out
	}
	for _, g := range pm.groups {
		s.shards[g.shardIdx].mu.Lock()
	}
	if s.db == nil {
		for _, g := range pm.groups {
			s.installShardLocked(g)
		}
	} else {
		pm.persistAndInstallLocked()
	}
	for i := len(pm.groups) - 1; i >= 0; i-- {
		s.shards[pm.groups[i].shardIdx].mu.Unlock()
	}
	s.finishMulti(pm.out, pm.groups)
	return pm.out
}

// persistAndInstallLocked is Commit's durable half: one store sequence for
// the wave, then the install. The caller holds every touched shard's write
// lock.
func (pm *PreparedMulti) persistAndInstallLocked() {
	s := pm.s
	seq := make([]*store.WriteBatch, 0, len(pm.groups))
	contributing := make([]*preparedGroup, 0, len(pm.groups))
	for _, g := range pm.groups {
		batch, err := s.buildShardBatchLocked(g)
		if err != nil {
			// A profile that fails validation charges its own shard group
			// and drops it from the wave; the other shards still commit.
			g.res.failStore(g.excluded, err)
			continue
		}
		if batch.Len() > 0 {
			seq = append(seq, batch)
			contributing = append(contributing, g)
			continue
		}
		// Nothing to persist (all events skipped): install immediately.
		s.installShardLocked(g)
	}
	if err := s.db.ApplyAllTagged(seq, pm.wave); err != nil {
		for _, g := range contributing {
			g.res.failStore(g.excluded, err)
		}
		return
	}
	for _, g := range contributing {
		s.installShardLocked(g)
	}
}

// IngestOutcome is one batch's result from PreparedMulti.Commit.
type IngestOutcome struct {
	// Processed counts the batch's events applied to registered profiles.
	Processed int
	// SkippedUnknown counts the batch's events of unregistered users.
	SkippedUnknown int
	// Err is the batch's failure, if any. A failed batch's events were not
	// applied in the shard group that reported the error (a store failure
	// reports it from every group of the wave).
	Err error
}

// taggedEvent carries an event's originating batch index through the shard
// fan-out so counts and errors land on the right submitter.
type taggedEvent struct {
	lifelog.Event
	batch int
}

// multiResult is one shard group's per-batch accounting.
type multiResult struct {
	processed    []int
	skipped      []int
	errs         []error
	interactions bool
}

// preparedGroup is one shard's slice of a merged wave: the events, and —
// after prepareShardLocked — the staged updates and per-batch accounting.
type preparedGroup struct {
	shardIdx int
	events   []taggedEvent

	res      multiResult
	excluded []bool
	// vectors holds the staged subjective digests (user → dense vector);
	// they replace the profiles' Subjective blocks only at install time.
	vectors map[uint64][]float64
	// interactions are the non-excluded known-user events to fold into the
	// shard's CF counts at install time.
	interactions []taggedEvent
}

// groupByShard tags every event with its batch index and partitions the
// merged stream by owning shard, preserving order.
func (s *SPA) groupByShard(batches [][]lifelog.Event) (map[int]*preparedGroup, time.Time) {
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	if total == 0 {
		return nil, time.Time{}
	}
	groups := make(map[int]*preparedGroup, len(s.shards))
	for b, evs := range batches {
		for _, e := range evs {
			idx := s.shardIndexFor(e.UserID)
			g := groups[idx]
			if g == nil {
				g = &preparedGroup{shardIdx: idx}
				groups[idx] = g
			}
			g.events = append(g.events, taggedEvent{Event: e, batch: b})
		}
	}
	return groups, s.clk.Now()
}

// prepareShardLocked runs the mutation-free half of one shard's ingest: the
// feed pass validates before anything is staged; when a batch's event breaks
// the merged stream, that batch is excluded (keeping its error) and the pass
// restarts over the survivors — dropping events can never introduce a new
// per-user ordering violation between the remaining ones, so the loop only
// ever shrinks and terminates after at most one retry per batch. The caller
// holds the shard's lock (read suffices: only snapshot membership is
// consulted, and no publish can land while the lock is held).
func (s *SPA) prepareShardLocked(g *preparedGroup, nbatches int, now time.Time) {
	sh := s.shards[g.shardIdx]
	g.res = multiResult{
		processed: make([]int, nbatches),
		skipped:   make([]int, nbatches),
		errs:      make([]error, nbatches),
	}
	g.excluded = make([]bool, nbatches)
	var x *lifelog.Extractor
	for {
		x = lifelog.NewExtractor(30*time.Minute, now)
		failed := -1
		for _, te := range g.events {
			if g.excluded[te.batch] {
				continue
			}
			if s.residentLocked(sh, te.UserID) == nil {
				g.res.skipped[te.batch]++
				continue
			}
			if err := x.Feed(te.Event); err != nil {
				failed = te.batch
				g.res.errs[te.batch] = fmt.Errorf("%w: %w", ErrBadStream, err)
				break
			}
			g.res.processed[te.batch]++
		}
		if failed < 0 {
			break
		}
		g.excluded[failed] = true
		for b := range nbatches {
			if !g.excluded[b] {
				g.res.processed[b], g.res.skipped[b] = 0, 0
			}
		}
		g.res.processed[failed], g.res.skipped[failed] = 0, 0
	}
	for _, te := range g.events {
		if g.excluded[te.batch] {
			continue
		}
		if s.residentLocked(sh, te.UserID) != nil {
			g.interactions = append(g.interactions, te)
		}
	}
	fvs := x.Finish()
	g.vectors = make(map[uint64][]float64, len(fvs))
	for id, fv := range fvs {
		g.vectors[id] = fv.Dense()
	}
}

// buildShardBatchLocked encodes the staged profile states into one store
// WriteBatch without touching the snapshot: each record is the profile as
// it will look after install. The caller holds the shard's write lock,
// which it keeps until after the batch is applied — nothing can move under
// the encoded bytes.
func (s *SPA) buildShardBatchLocked(g *preparedGroup) (*store.WriteBatch, error) {
	sh := s.shards[g.shardIdx]
	var batch store.WriteBatch
	for id, vec := range g.vectors {
		p := s.residentLocked(sh, id)
		if p == nil {
			continue
		}
		cp := *p
		cp.Subjective = vec
		if err := cp.Validate(); err != nil {
			return nil, err
		}
		batch.Put(sum.Key(id), sum.Encode(&cp))
	}
	// The wave's interaction events ride the record's annotation: opaque to
	// the store and to replay, but a follower applying this record needs
	// them to rebuild the CF matrix (replicate.go).
	if batch.Len() > 0 && len(g.interactions) > 0 {
		batch.SetAnnotation(encodeWaveAnnotation(g.interactions))
	}
	return &batch, nil
}

// installShardLocked makes the staged updates live: each updated profile
// is installed as a modified copy in the shard's next read snapshot — the
// epoch installation point of the commit stage (DESIGN.md §8). The caller
// holds the shard's write lock and has already made the updates durable
// (or runs non-durably).
func (s *SPA) installShardLocked(g *preparedGroup) {
	sh := s.shards[g.shardIdx]
	changes := make([]profChange, 0, len(g.vectors))
	for id, vec := range g.vectors {
		if p := s.residentLocked(sh, id); p != nil {
			cp := *p
			cp.Subjective = vec
			changes = append(changes, profChange{id: id, p: &cp})
		}
	}
	if s.publishShardLocked(sh, changes, g.interactions) > 0 {
		g.res.interactions = true
	}
}

// finishMulti folds the shard groups' accounting into the per-batch
// outcomes and, if any group recorded interactions, bumps the recommend
// generation (lock-free) so no cached ranking outlives the new rows.
func (s *SPA) finishMulti(out []IngestOutcome, groups []*preparedGroup) {
	newRows := false
	for _, g := range groups {
		newRows = newRows || g.res.interactions
	}
	if newRows {
		s.invalidateRecommender()
	}
	for _, g := range groups {
		for b := range out {
			out[b].Processed += g.res.processed[b]
			out[b].SkippedUnknown += g.res.skipped[b]
			if out[b].Err == nil && g.res.errs[b] != nil {
				out[b].Err = g.res.errs[b]
			}
		}
	}
}

// failStore charges a persistence failure to every surviving batch that
// contributed applied events to this shard group.
func (r *multiResult) failStore(excluded []bool, err error) {
	for b := range r.errs {
		if !excluded[b] && r.processed[b] > 0 && r.errs[b] == nil {
			r.errs[b] = err
		}
	}
}
