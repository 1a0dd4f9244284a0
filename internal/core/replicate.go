package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/sum"
)

// Follower-side replication (DESIGN.md §9). A leader's committed log records
// carry everything a replica needs to reproduce its read state:
//
//   - The key/value entries rebuild the durable profiles — the same bytes the
//     leader's own crash recovery would replay.
//   - The record's annotation carries what the entries cannot express: the
//     wave's interaction events, which exist only in the shard snapshots'
//     CF matrix (snapshot.go) and never reach the store. The leader's commit
//     path attaches them (encodeRun); replay ignores them; a follower
//     decodes them here and folds them through the same publish the leader
//     used, so RecommendActions converges along with the profile reads.
//
// ApplyReplicatedWaves commits through commitGroups, the routine
// PreparedMulti.Commit uses: store write first (with the leader's LSNs,
// enforcing exact log contiguity, one sync for the whole run), then
// per-shard snapshot publish under the shard write locks, taken in index
// order — the same ordering that makes concurrent local commits
// deadlock-free makes the follower's apply loop safe next to its own read
// traffic.

// waveAnnotationVersion tags the interaction-event annotation codec.
const waveAnnotationVersion = 0x01

// encodeWaveAnnotation packs a wave's interaction events into the opaque
// annotation blob of its log record: a version byte, a uvarint count, then
// per event uvarint user id, one type byte, uvarint action. Only the fields
// the CF fold (publishShardLocked) consumes travel.
func encodeWaveAnnotation(events []taggedEvent) []byte {
	buf := make([]byte, 0, waveAnnotationBound(len(events)))
	buf = append(buf, waveAnnotationVersion)
	buf = binary.AppendUvarint(buf, uint64(len(events)))
	for _, te := range events {
		buf = appendWaveEvent(buf, te)
	}
	return buf
}

// waveAnnotationBound is the longest annotation encoding of n events.
func waveAnnotationBound(n int) int {
	return 1 + binary.MaxVarintLen64 + n*(binary.MaxVarintLen64+1+binary.MaxVarintLen32)
}

// appendWaveEvent appends one event's annotation encoding to buf.
func appendWaveEvent(buf []byte, te taggedEvent) []byte {
	buf = binary.AppendUvarint(buf, te.UserID)
	buf = append(buf, byte(te.Type))
	return binary.AppendUvarint(buf, uint64(te.Action))
}

// decodeWaveAnnotation unpacks an annotation blob. An empty blob is a wave
// with no interaction events (e.g. a Register or EIT-answer record).
func decodeWaveAnnotation(blob []byte) ([]taggedEvent, error) {
	return appendWaveEvents(nil, blob)
}

// waveEventCount reports the event count an annotation blob declares (0
// for an empty or malformed one: appendWaveEvents reports the error), so a
// run's events can decode into one buffer sized up front.
func waveEventCount(blob []byte) int {
	if len(blob) == 0 {
		return 0
	}
	count, n := binary.Uvarint(blob[1:])
	if n <= 0 || count > uint64(len(blob))/3 {
		return 0
	}
	return int(count)
}

// appendWaveEvents decodes an annotation blob, appending its events to dst.
func appendWaveEvents(dst []taggedEvent, blob []byte) ([]taggedEvent, error) {
	if len(blob) == 0 {
		return dst, nil
	}
	if blob[0] != waveAnnotationVersion {
		return nil, fmt.Errorf("core: unknown wave annotation version %d", blob[0])
	}
	p := blob[1:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errors.New("core: truncated wave annotation count")
	}
	p = p[n:]
	// Each event costs at least 1+1+1 bytes; never trust the count further.
	if maxPossible := uint64(len(p)) / 3; count > maxPossible {
		return nil, fmt.Errorf("core: wave annotation declares %d events, at most %d fit", count, maxPossible)
	}
	dst = slices.Grow(dst, int(count))
	for i := uint64(0); i < count; i++ {
		var te taggedEvent
		id, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errors.New("core: truncated wave annotation user id")
		}
		p = p[n:]
		if len(p) == 0 {
			return nil, errors.New("core: truncated wave annotation type")
		}
		te.UserID = id
		te.Type = lifelog.EventType(p[0])
		p = p[1:]
		action, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errors.New("core: truncated wave annotation action")
		}
		if action > uint64(^uint32(0)) {
			return nil, fmt.Errorf("core: wave annotation action %d overflows uint32", action)
		}
		p = p[n:]
		te.Action = uint32(action)
		dst = append(dst, te)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in wave annotation", len(p))
	}
	return dst, nil
}

// sumKeyUser parses a profile store key ("sum/" + big-endian user id).
func sumKeyUser(key []byte) (uint64, bool) {
	if len(key) != 12 || string(key[:4]) != "sum/" {
		return 0, false
	}
	return binary.BigEndian.Uint64(key[4:]), true
}

// AppliedLSN reports the durable log position this instance has committed
// through; ok is false on an in-memory-only instance (which has no log to
// ship or apply).
func (s *SPA) AppliedLSN() (lsn uint64, ok bool) {
	if s.db == nil {
		return 0, false
	}
	return s.db.AppliedLSN(), true
}

// LogFloor reports the oldest retained log position (store.LogFloor); ok is
// false on an in-memory-only instance.
func (s *SPA) LogFloor() (lsn uint64, ok bool) {
	if s.db == nil {
		return 0, false
	}
	return s.db.LogFloor(), true
}

// TailLog subscribes to the committed log (store.TailLog) — the leader half
// of replication.
func (s *SPA) TailLog(fromLSN uint64) (*store.LogTail, error) {
	if s.db == nil {
		return nil, errors.New("core: replication requires a durable store")
	}
	return s.db.TailLog(fromLSN)
}

// ExportSnapshot captures the durable key space and its LSN for follower
// bootstrap (store.ExportSnapshot).
func (s *SPA) ExportSnapshot() ([]store.LogEntry, uint64, error) {
	if s.db == nil {
		return nil, 0, errors.New("core: replication requires a durable store")
	}
	return s.db.ExportSnapshot()
}

// ApplyReplicatedWave applies one shipped log record to a follower: a
// one-record ApplyReplicatedWaves.
func (s *SPA) ApplyReplicatedWave(lsn uint64, annotation []byte, entries []store.LogEntry) error {
	return s.ApplyReplicatedWaves([]store.LogRecord{{LSN: lsn, Annotation: annotation, Entries: entries}})
}

// ApplyReplicatedWaves applies a run of shipped log records to a follower
// as one group: the records commit to the local store under the leader's
// LSNs with one WAL sync (store.ApplyReplicated refuses the whole run
// unless it extends the applied position contiguously), then every
// record's profile changes and annotation interaction events install into
// shard memory under one pass of shard locks — the same install + publish
// sequence the leader's commit stage ran, so every snapshot read
// API (profile, recommend, propensity, select-top) converges to the
// leader's results at the run's last LSN. A later record's change to a user
// wins over an earlier one's, and CF events fold in LSN order, exactly as
// record-by-record application would leave them.
func (s *SPA) ApplyReplicatedWaves(recs []store.LogRecord) error {
	if s.db == nil {
		return errors.New("core: replication requires a durable store")
	}
	return s.applyShipped(recs, false, func() error { return s.db.ApplyReplicated(recs) })
}

// applyShipped is what every shipped-record apply shares: it groups the
// run's changes and events by shard (groupShipped) and commits them through
// commitGroups, the routine a local wave commits through. The write is the
// one thing follower and handoff applies differ in.
func (s *SPA) applyShipped(recs []store.LogRecord, strict bool, write func() error) error {
	if len(recs) == 0 {
		return nil
	}
	groups, err := s.groupShipped(recs, strict)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return s.commitGroups(groups, write)
}

// shippedProfile is one decoded shipped profile and the floats its two
// vectors are carved from (sum.DecodeInto): one allocation per profile
// whenever the vectors fit — up to 8 objective features (the synthetic
// population's count) beside a dense subjective vector — and one more per
// vector that does not. It is never reused: the profile it holds is
// published, and published profiles are immutable.
type shippedProfile struct {
	p      sum.Profile
	floats [8 + lifelog.DenseLen]float64
}

// groupShipped decodes a run of shipped records — profile entries (puts and
// tombstones) and annotation interaction events, concatenated in LSN order —
// and groups both by owning shard, ascending. Groups are windows of stably
// shard-sorted slices, so each shard keeps the run's order and a
// single-shard run costs no per-shard allocation. Keys outside the profile
// key space are skipped, or refused when strict.
func (s *SPA) groupShipped(recs []store.LogRecord, strict bool) ([]preparedGroup, error) {
	n, nev := 0, 0
	for _, r := range recs {
		n += len(r.Entries)
		nev += waveEventCount(r.Annotation)
	}
	changes := make([]profChange, 0, n)
	events := make([]taggedEvent, 0, nev)
	for _, r := range recs {
		var err error
		if events, err = appendWaveEvents(events, r.Annotation); err != nil {
			return nil, fmt.Errorf("wave %d: %w", r.LSN, err)
		}
		for _, e := range r.Entries {
			id, ok := sumKeyUser(e.Key)
			if !ok {
				if strict {
					return nil, fmt.Errorf("wave %d: entry outside profile key space: %q", r.LSN, e.Key)
				}
				// A foreign key space: persisted, nothing to install.
				continue
			}
			var p *sum.Profile
			if !e.Tombstone {
				sp := new(shippedProfile)
				p = &sp.p
				if err = sum.DecodeInto(p, e.Value, sp.floats[:]); err != nil {
					return nil, fmt.Errorf("wave %d: profile %d: %w", r.LSN, id, err)
				}
				if p.UserID != id {
					return nil, fmt.Errorf("wave %d: key/profile user mismatch: %d vs %d", r.LSN, id, p.UserID)
				}
			}
			changes = append(changes, profChange{id: id, p: p})
		}
	}
	slices.SortStableFunc(changes, func(a, b profChange) int {
		return cmp.Compare(s.shardIndexFor(a.id), s.shardIndexFor(b.id))
	})
	slices.SortStableFunc(events, func(a, b taggedEvent) int {
		return cmp.Compare(s.shardIndexFor(a.UserID), s.shardIndexFor(b.UserID))
	})
	groups := make([]preparedGroup, 0, min(len(s.shards), len(changes)+len(events)))
	for ci, ei := 0, 0; ci < len(changes) || ei < len(events); {
		idx := len(s.shards)
		if ci < len(changes) {
			idx = s.shardIndexFor(changes[ci].id)
		}
		if ei < len(events) {
			idx = min(idx, s.shardIndexFor(events[ei].UserID))
		}
		ce, ee := ci, ei
		for ce < len(changes) && s.shardIndexFor(changes[ce].id) == idx {
			ce++
		}
		for ee < len(events) && s.shardIndexFor(events[ee].UserID) == idx {
			ee++
		}
		groups = append(groups, preparedGroup{shardIdx: idx, digests: changes[ci:ce], interactions: events[ei:ee]})
		ci, ei = ce, ee
	}
	return groups, nil
}
