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
// prefix. All touched shards stay write-locked across the write, so no
// other writer's store record can interleave with the wave's and
// memory-vs-durable ordering per user is preserved. A store failure fails
// the whole wave (every contributing batch is charged); staged state is
// then discarded, leaving shard memory untouched.
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
	// One CF delta buffer, sized for the largest group, serves every
	// group's publish in turn and dies with the wave.
	most := 0
	for i := range pm.groups {
		most = max(most, len(pm.groups[i].interactions))
	}
	var deltas []rowDelta
	if most > 0 {
		deltas = make([]rowDelta, 0, most)
	}
	for i := range pm.groups {
		s.shards[pm.groups[i].shardIdx].mu.Lock()
	}
	if s.db == nil {
		for i := range pm.groups {
			s.installShardLocked(&pm.groups[i], deltas)
		}
	} else {
		pm.persistAndInstallLocked(deltas)
	}
	for i := len(pm.groups) - 1; i >= 0; i-- {
		s.shards[pm.groups[i].shardIdx].mu.Unlock()
	}
	s.finishMulti(pm.out, pm.groups)
	return pm.out
}

// persistAndInstallLocked is Commit's durable half: the wave's store record
// (recordRun cuts a wave over the record cap into a few), then the install.
// The caller holds every touched shard's write lock until the record is
// applied — nothing can move under the encoded bytes.
func (pm *PreparedMulti) persistAndInstallLocked(deltas []rowDelta) {
	s := pm.s
	for i := range pm.groups {
		// A group that fails validation is charged and dropped; one with
		// nothing to persist (all events skipped) installs at once.
		if g := &pm.groups[i]; s.sizeGroupLocked(g) == nil && g.size.entries == 0 {
			s.installShardLocked(g, deltas)
		}
	}
	seq := []*store.WriteBatch{&pm.batch} // and one more per record past the cap
	var scratch []byte
	for rest, n := pm.groups, 0; len(rest) > 0; rest = rest[n:] {
		var sz recordSize
		if n, sz = recordRun(rest, store.MaxRecordBytes); sz.entries > 0 {
			if seq[len(seq)-1].Len() > 0 {
				seq = append(seq, new(store.WriteBatch))
			}
			scratch = s.encodeRunLocked(seq[len(seq)-1], rest[:n], sz, scratch)
		}
	}
	err := s.db.ApplyAllTagged(seq, pm.wave)
	for i := range pm.groups {
		g := &pm.groups[i]
		switch {
		case g.size.entries == 0:
		case err != nil:
			g.failStore(err)
		default:
			s.installShardLocked(g, deltas)
		}
	}
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

// sizeGroupLocked validates the group's staged profiles, each as it will
// look after install, and sets g.size, zero when the group persists
// nothing. A validation error is charged to the group, whose staged
// profiles it drops. The caller holds the shard's write lock.
func (s *SPA) sizeGroupLocked(g *preparedGroup) error {
	sh := s.shards[g.shardIdx]
	sz := recordSize{events: len(g.interactions)}
	for _, d := range g.digests {
		p := s.residentLocked(sh, d.id)
		if p == nil {
			continue
		}
		cp := *p
		cp.Subjective = d.p.Subjective
		if err := cp.Validate(); err != nil {
			g.failStore(err)
			g.digests = nil
			return err
		}
		l := sum.EncodedLen(&cp)
		sz.entries, sz.bytes, sz.largest = sz.entries+1, sz.bytes+sum.KeyLen+l, max(sz.largest, l)
	}
	if sz.entries > 0 {
		g.size = sz
	}
	return nil
}

// encodeRunLocked encodes a run of groups, of total size sz, into b: an
// annotation of the persisting groups' interactions, in shard order, for a
// follower to rebuild the CF matrix from (replicate.go), and each staged
// profile as it will look after install. scratch, grown once to fit the
// annotation and the largest value, is returned for the next run.
func (s *SPA) encodeRunLocked(b *store.WriteBatch, run []preparedGroup, sz recordSize, scratch []byte) []byte {
	scratch = slices.Grow(scratch[:0], max(sz.largest, waveAnnotationBound(sz.events)))
	if sz.events > 0 {
		scratch = append(scratch, waveAnnotationVersion)
		scratch = binary.AppendUvarint(scratch, uint64(sz.events))
	}
	for i := range run {
		if run[i].size.entries == 0 {
			continue // dropped, or installed already
		}
		for _, te := range run[i].interactions {
			scratch = appendWaveEvent(scratch, te)
		}
	}
	b.Grow(sz.entries, sz.bytes+len(scratch))
	b.SetAnnotation(scratch)
	var key [sum.KeyLen]byte
	for i := range run {
		sh := s.shards[run[i].shardIdx]
		for _, d := range run[i].digests { // none in a dropped or installed group
			if p := s.residentLocked(sh, d.id); p != nil {
				cp := *p
				cp.Subjective = d.p.Subjective
				scratch = sum.AppendEncode(scratch[:0], &cp)
				b.Put(sum.AppendKey(key[:0], d.id), scratch)
			}
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
	// digests are the staged profile updates, one per fed user, in a
	// window of the wave's one digest array. Each p is a stagedProfile
	// whose Subjective already holds the new vector; install fills in the
	// rest from the resident profile and publishes it.
	digests []profChange
	// interactions are the non-excluded known-user events to fold into the
	// shard's CF counts at install time.
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

// installShardLocked makes the staged updates live: each staged profile
// becomes a copy of the resident one carrying its new Subjective and is
// installed in the shard's next read snapshot — the epoch installation
// point of the commit stage (DESIGN.md §8). The digests are filtered in
// place into the publish's changes; deltas is the wave's CF buffer. The
// caller holds the shard's write lock and has already made the updates
// durable (or runs non-durably).
func (s *SPA) installShardLocked(g *preparedGroup, deltas []rowDelta) {
	sh := s.shards[g.shardIdx]
	changes := g.digests[:0]
	for _, d := range g.digests {
		if p := s.residentLocked(sh, d.id); p != nil {
			sub := d.p.Subjective
			*d.p = *p
			d.p.Subjective = sub
			changes = append(changes, d)
		}
	}
	g.digests = nil
	s.publishShardLocked(sh, changes, g.interactions, deltas)
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
