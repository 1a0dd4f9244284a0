package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
//     WAL record (one LSN, one WAL sync for the whole wave) and only then
//     installs the staged state in shard memory.
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
// WAL record with one WAL sync.
//
// Semantics match a sequential single-shard ingest: per-user results depend
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
	pm.groups = groups
	if len(groups) == 0 {
		return pm
	}
	// At most one worker per CPU, this goroutine among them; the workers
	// claim groups off a shared counter.
	var next atomic.Int32
	var wg sync.WaitGroup
	workers := min(len(groups), runtime.GOMAXPROCS(0))
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			s.prepareGroups(groups, &next, now)
		}()
	}
	s.prepareGroups(groups, &next, now)
	wg.Wait()
	return pm
}

// prepareGroups is one prepare worker: it claims the wave's groups one at a
// time until none is left, reusing one Extractor and one feature-vector
// buffer across them. Both die with the wave.
func (s *SPA) prepareGroups(groups []preparedGroup, next *atomic.Int32, now time.Time) {
	x := lifelog.NewExtractor(30*time.Minute, now)
	var fvs []lifelog.FeatureVector
	for i := int(next.Add(1)) - 1; i < len(groups); i = int(next.Add(1)) - 1 {
		g := &groups[i]
		sh := s.shards[g.shardIdx]
		sh.mu.RLock()
		fvs = s.prepareShardLocked(g, x, fvs)
		sh.mu.RUnlock()
	}
}

// PreparedMulti is the staged, uncommitted result of PrepareMulti: per-batch
// attribution plus every shard's pending profile updates. Nothing is
// visible — in shard memory or in the store — until Commit.
type PreparedMulti struct {
	s   *SPA
	out []IngestOutcome
	// groups are in ascending shard index: Commit write-locks the shards
	// in this order, so concurrent Commits can never deadlock.
	groups    []preparedGroup
	committed bool
	wave      uint64
	batch     store.WriteBatch // the wave's store record, built by Commit
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
// The durable path commits the whole wave, every shard group of it, as one
// WAL record with one sync, so crash replay recovers the wave whole or not
// at all, in every shard; only a wave too large for one record
// (store.MaxRecordBytes) is cut into a few, of which replay recovers a
// prefix. All touched shards stay write-locked across the write
// (commitGroups), so no other writer's store record can interleave with
// the wave's and memory-vs-durable ordering per user is preserved. A store
// failure fails the whole wave (every contributing batch is charged);
// staged state is then discarded, leaving shard memory untouched.
//
// Callers that overlap several PreparedMulti instances must Commit them in
// prepare order when their batches may share users — the coalescer does
// (single committer, FIFO waves). Independent callers (concurrent
// BatchIngest) need no coordination: a staged digest depends only on its
// own batch's events, and the write completes each staged profile from the
// resident one under the write lock. Commit must be called at most once.
func (pm *PreparedMulti) Commit() []IngestOutcome {
	if pm.committed {
		panic("core: PreparedMulti committed twice")
	}
	pm.committed = true
	if len(pm.groups) == 0 {
		return pm.out
	}
	if err := pm.s.commitGroups(pm.groups, pm.writeLocked); err != nil {
		for i := range pm.groups {
			pm.groups[i].failStore(err)
		}
	}
	pm.s.finishMulti(pm.out, pm.groups)
	return pm.out
}

// commitGroups is the one install routine of every write — a local wave,
// a follower's shipped run, a handoff target's run, a single-profile write
// (writeProfile). It write-locks the groups' shards once, in ascending
// index order (the groups are sorted by shard), runs write, and only if
// write succeeded publishes each group's profiles and events — a group
// with neither publishes nothing, so its shard's snapshot and the epoch
// stay put. One CF delta buffer, sized for the largest group, serves every
// publish in turn and dies with the call.
func (s *SPA) commitGroups(groups []preparedGroup, write func() error) error {
	most := 0
	for i := range groups {
		most = max(most, len(groups[i].interactions))
	}
	var deltas []rowDelta
	if most > 0 {
		deltas = make([]rowDelta, 0, most)
	}
	for i := range groups {
		s.shards[groups[i].shardIdx].mu.Lock()
	}
	err := write()
	if err == nil {
		for i := range groups {
			if g := &groups[i]; len(g.digests) > 0 || len(g.interactions) > 0 {
				s.publishShardLocked(s.shards[g.shardIdx], g.digests, g.interactions, deltas)
			}
		}
	}
	for i := len(groups) - 1; i >= 0; i-- {
		s.shards[groups[i].shardIdx].mu.Unlock()
	}
	return err
}

// writeLocked is Commit's write: it completes every group's staged
// profiles, then, on a durable instance, writes the wave's store record
// (recordRun cuts a wave over the record cap into a few). The caller
// (commitGroups) holds every touched shard's write lock — nothing can move
// under the encoded bytes.
func (pm *PreparedMulti) writeLocked() error {
	s := pm.s
	for i := range pm.groups {
		s.completeGroupLocked(&pm.groups[i])
	}
	if s.db == nil {
		return nil
	}
	seq := []*store.WriteBatch{&pm.batch} // and one more per record past the cap
	var scratch []byte
	for rest, n := pm.groups, 0; len(rest) > 0; rest = rest[n:] {
		var sz recordSize
		if n, sz = recordRun(rest, store.MaxRecordBytes); sz.entries > 0 {
			if seq[len(seq)-1].Len() > 0 {
				seq = append(seq, new(store.WriteBatch))
			}
			scratch = encodeRun(seq[len(seq)-1], rest[:n], sz, scratch)
		}
	}
	return s.db.ApplyAllTagged(seq, pm.wave)
}

// recordSize is a shard group's share of a wave record, or a run's total:
// profile entries, their key and value bytes, longest value, and events.
type recordSize struct{ entries, bytes, largest, events int }

// recordRun reports how many of the leading groups one store record
// carries under limit, and their total size: as many as fit by
// store.RecordBound, and at least one — the store refuses a group over the
// limit alone, failing the wave, while every group that fits alone commits.
func recordRun(groups []preparedGroup, limit int) (int, recordSize) {
	var run recordSize
	for i := range groups {
		sz := groups[i].size
		next := recordSize{run.entries + sz.entries, run.bytes + sz.bytes, max(run.largest, sz.largest), run.events + sz.events}
		if i > 0 && store.RecordBound(next.entries, next.bytes+waveAnnotationBound(next.events)) > limit {
			return i, run
		}
		run = next
	}
	return len(groups), run
}

// completeGroupLocked turns each staged profile into the resident one
// carrying its new Subjective, dropping users no longer resident. On a
// durable instance it also validates each completed profile and sets
// g.size, zero when the group persists nothing; a validation error is
// charged to the group, whose staged profiles and events it drops. The
// caller holds the shard's write lock.
func (s *SPA) completeGroupLocked(g *preparedGroup) {
	sh := s.shards[g.shardIdx]
	sz := recordSize{events: len(g.interactions)}
	changes := g.digests[:0]
	for _, d := range g.digests {
		p := s.residentLocked(sh, d.id)
		if p == nil {
			continue
		}
		sub := d.p.Subjective
		*d.p = *p
		d.p.Subjective = sub
		changes = append(changes, d)
		if s.db == nil {
			continue
		}
		if err := d.p.Validate(); err != nil {
			g.failStore(err)
			g.digests, g.interactions = nil, nil
			return
		}
		l := sum.EncodedLen(d.p)
		sz.entries, sz.bytes, sz.largest = sz.entries+1, sz.bytes+sum.KeyLen+l, max(sz.largest, l)
	}
	g.digests = changes
	if sz.entries > 0 {
		g.size = sz
	}
}

// encodeRun encodes a run of completed groups, of total size sz, into b:
// an annotation of the persisting groups' interactions, in shard order, for
// a follower to rebuild the CF matrix from (replicate.go), and each staged
// profile. scratch, grown once to fit the annotation and the largest value,
// is returned for the next run.
func encodeRun(b *store.WriteBatch, run []preparedGroup, sz recordSize, scratch []byte) []byte {
	scratch = slices.Grow(scratch[:0], max(sz.largest, waveAnnotationBound(sz.events)))
	if sz.events > 0 {
		scratch = append(scratch, waveAnnotationVersion)
		scratch = binary.AppendUvarint(scratch, uint64(sz.events))
	}
	for i := range run {
		if run[i].size.entries == 0 {
			continue // dropped, or nothing to persist
		}
		for _, te := range run[i].interactions {
			scratch = appendWaveEvent(scratch, te)
		}
	}
	b.Grow(sz.entries, sz.bytes+len(scratch))
	b.SetAnnotation(scratch)
	var key [sum.KeyLen]byte
	for i := range run {
		for _, d := range run[i].digests { // none in a dropped group
			scratch = sum.AppendEncode(scratch[:0], d.p)
			b.Put(sum.AppendKey(key[:0], d.id), scratch)
		}
	}
	return scratch
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

// batchTally is one shard group's accounting for one input batch.
type batchTally struct {
	processed int
	skipped   int
	err       error
	// excluded marks a batch whose events broke the merged stream: none of
	// them is applied in this group.
	excluded bool
}

// preparedGroup is one shard's slice of a merged wave: the events, and —
// after prepareShardLocked — the staged updates and per-batch accounting.
type preparedGroup struct {
	shardIdx int
	events   []taggedEvent
	// users bounds the group's distinct users: the runs of one user's
	// consecutive events.
	users int

	tally []batchTally // by batch index; the wave's groups share one array
	// digests are the profiles to publish. On a local wave they are the
	// staged updates, one per fed user, in a window of the wave's one
	// digest array: each p is a stagedProfile whose Subjective already
	// holds the new vector, and Commit's write fills in the rest from the
	// resident profile. On a shipped run they are the decoded changes.
	digests []profChange
	// interactions are the events to fold into the shard's CF counts at
	// publish: a local wave's non-excluded known-user events, or a shipped
	// run's annotation events.
	interactions []taggedEvent
	// size is the group's share of the wave record, set by Commit; zero
	// when the group persists nothing.
	size recordSize
}

// stagedProfile is one user's next profile and its subjective vector in a
// single allocation: Subjective points into vec.
type stagedProfile struct {
	p   sum.Profile
	vec [lifelog.DenseLen]float64
}

// groupByShard tags every event with its batch index and partitions the
// merged stream by owning shard, preserving order. It is a counting sort:
// one pass counts each shard's events, one places them, so every group's
// events are a window of one array and the groups come out in shard order.
// The groups' digests are capped windows of one more array, sized by the
// wave's users; both arrays die with the wave.
func (s *SPA) groupByShard(batches [][]lifelog.Event) ([]preparedGroup, time.Time) {
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	if total == 0 {
		return nil, time.Time{}
	}
	next := make([]int, len(s.shards)) // each shard's count, then its cursor
	for _, evs := range batches {
		for _, e := range evs {
			next[s.shardIndexFor(e.UserID)]++
		}
	}
	ngroups := 0
	for _, n := range next {
		if n > 0 {
			ngroups++
		}
	}
	all := make([]taggedEvent, total)
	tallies := make([]batchTally, ngroups*len(batches))
	groups := make([]preparedGroup, 0, ngroups)
	start := 0
	for idx, n := range next {
		if n > 0 {
			tally := tallies[len(groups)*len(batches) : (len(groups)+1)*len(batches)]
			groups = append(groups, preparedGroup{shardIdx: idx, events: all[start : start+n : start+n], tally: tally})
		}
		next[idx] = start
		start += n
	}
	for b, evs := range batches {
		for _, e := range evs {
			idx := s.shardIndexFor(e.UserID)
			all[next[idx]] = taggedEvent{Event: e, batch: b}
			next[idx]++
		}
	}
	users := 0
	for i := range groups {
		g := &groups[i]
		for j, te := range g.events {
			if j == 0 || te.UserID != g.events[j-1].UserID {
				g.users++
			}
		}
		users += g.users
	}
	digests := make([]profChange, users)
	for i := range groups {
		g := &groups[i]
		g.digests, digests = digests[:0:g.users], digests[g.users:]
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
// consulted, and no publish can land while the lock is held). x and fvs are
// the worker's: x is reset here, and fvs, returned for the next group, is
// overwritten.
func (s *SPA) prepareShardLocked(g *preparedGroup, x *lifelog.Extractor, fvs []lifelog.FeatureVector) []lifelog.FeatureVector {
	sh := s.shards[g.shardIdx]
	x.Reset()
	x.Grow(g.users)
	for {
		failed := -1
		for _, te := range g.events {
			t := &g.tally[te.batch]
			if t.excluded {
				continue
			}
			if s.residentLocked(sh, te.UserID) == nil {
				t.skipped++
				continue
			}
			if err := x.Feed(te.Event); err != nil {
				failed = te.batch
				t.err = fmt.Errorf("%w: %w", ErrBadStream, err)
				break
			}
			t.processed++
		}
		if failed < 0 {
			break
		}
		g.tally[failed].excluded = true
		for b := range g.tally {
			g.tally[b].processed, g.tally[b].skipped = 0, 0
		}
		x.Reset()
	}
	// The interactions are filtered out of the group's own events, in
	// place: nothing reads the events after this.
	g.interactions = g.events[:0]
	for _, te := range g.events {
		if !g.tally[te.batch].excluded && s.residentLocked(sh, te.UserID) != nil {
			g.interactions = append(g.interactions, te)
		}
	}
	g.events = nil
	fvs = x.FinishInto(fvs)
	for i := range fvs {
		st := &stagedProfile{}
		st.p.Subjective = fvs[i].AppendDense(st.vec[:0])
		g.digests = append(g.digests, profChange{id: fvs[i].UserID, p: &st.p})
	}
	return fvs
}

// finishMulti folds the shard groups' accounting into the per-batch
// outcomes.
func (s *SPA) finishMulti(out []IngestOutcome, groups []preparedGroup) {
	for i := range groups {
		for b, t := range groups[i].tally {
			out[b].Processed += t.processed
			out[b].SkippedUnknown += t.skipped
			if out[b].Err == nil && t.err != nil {
				out[b].Err = t.err
			}
		}
	}
}

// failStore charges a persistence failure to every surviving batch that
// contributed applied events to this shard group.
func (g *preparedGroup) failStore(err error) {
	for b := range g.tally {
		if t := &g.tally[b]; !t.excluded && t.processed > 0 && t.err == nil {
			t.err = err
		}
	}
}
