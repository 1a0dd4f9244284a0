package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/store"
)

// The handoff invariant (ISSUE 10): moving a slot set from a source node to
// a target via slot-filtered snapshot + slot-filtered tail reproduces every
// moved user's profile byte-for-byte on the target, while users outside the
// moving slots never travel. Cross-user state (the CF matrix) is out of
// scope — it rebuilds from the target's own traffic.

// slotsOfUsers collects the keyspace slots of the given users.
func slotsOfUsers(ids []uint64) *keyspace.SlotSet {
	var s keyspace.SlotSet
	for _, id := range ids {
		s.Add(keyspace.Partition(id))
	}
	return &s
}

// shipHandoff runs the target half of a handoff stream in-process: the
// slot snapshot as one local apply, then every remaining source record
// slot-filtered and applied. Returns the source LSN shipped through.
func shipHandoff(t *testing.T, source, target *SPA, slots *keyspace.SlotSet) uint64 {
	t.Helper()
	pairs, snapLSN, err := source.ExportSlotSnapshot(slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) > 0 {
		if err := target.ApplyHandoffWaves([]store.LogRecord{{Entries: pairs}}); err != nil {
			t.Fatal(err)
		}
	}
	sourceLSN, _ := source.AppliedLSN()
	if snapLSN >= sourceLSN {
		return snapLSN
	}
	tail, err := source.TailLog(snapLSN + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	shipped := snapLSN
	for shipped < sourceLSN {
		rec, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		shipped = rec.LSN
		ann, entries, err := FilterWaveForSlots(rec.Annotation, rec.Entries, slots)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			continue
		}
		if err := target.ApplyHandoffWaves([]store.LogRecord{{Annotation: ann, Entries: entries}}); err != nil {
			t.Fatal(err)
		}
	}
	return shipped
}

func TestSlotHandoffMovesProfilesExactly(t *testing.T) {
	clk := clock.NewSimulated(t0)
	source, err := New(replTestOpts(t.TempDir(), clk, store.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	target, err := New(replTestOpts(t.TempDir(), clk, store.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	users := replUsers(40)
	for _, id := range users {
		if err := source.Register(id, []float64{float64(id), 1}); err != nil {
			t.Fatal(err)
		}
	}
	base := t0.Add(-12 * time.Hour)
	ingestRound := func(round int, ids []uint64) {
		var batch []lifelog.Event
		for i, id := range ids {
			batch = append(batch, lifelog.Event{UserID: id, Time: base.Add(time.Duration(round*1000+i) * time.Second),
				Type: lifelog.EventClick, Action: uint32((int(id)*7 + round) % lifelog.ActionUniverse)})
		}
		ingestWave(t, source, [][]lifelog.Event{batch})
	}
	for round := 0; round < 4; round++ {
		ingestRound(round, users)
	}

	moving := users[:17]
	slots := slotsOfUsers(moving)
	// Staying users whose slots are NOT moving (slot collisions can pull a
	// "staying" user into the moving set; exclude those from the negative
	// assertions).
	var staying []uint64
	for _, id := range users[17:] {
		if !slots.Has(keyspace.Partition(id)) {
			staying = append(staying, id)
		}
	}
	if len(staying) == 0 {
		t.Fatal("test ids collide entirely; pick different ids")
	}

	// Snapshot, then more source traffic before the tail catches up — the
	// wave filter path must carry the delta.
	shipped := shipHandoff(t, source, target, slots)
	ingestRound(4, users)
	shipHandoff(t, source, target, slots)
	if lsn, _ := source.AppliedLSN(); shipped >= lsn {
		t.Fatal("second round shipped nothing; delta path untested")
	}

	for _, id := range moving {
		sp, err := source.Profile(id)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := target.Profile(id)
		if err != nil {
			t.Fatalf("moved user %d missing on target: %v", id, err)
		}
		if !reflect.DeepEqual(sp, tp) {
			t.Fatalf("user %d: profiles diverge:\nsource %+v\ntarget %+v", id, sp, tp)
		}
		ss, err := source.Sensibilities(id)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := target.Sensibilities(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ss, ts) {
			t.Fatalf("user %d: sensibilities diverge", id)
		}
	}
	for _, id := range staying {
		if _, err := target.Profile(id); err == nil {
			t.Fatalf("user %d outside the moving slots leaked to the target", id)
		}
	}

	// Source-side cleanup: dropped users leave memory, stayers are intact.
	before := source.Users()
	dropped := source.DropSlotUsers(slots)
	if dropped == 0 {
		t.Fatal("DropSlotUsers removed nothing")
	}
	if got := source.Users(); got != before-dropped {
		t.Fatalf("user count %d after dropping %d from %d", got, dropped, before)
	}
	for _, id := range moving {
		if _, err := source.Profile(id); err == nil {
			t.Fatalf("moved user %d still readable on source after drop", id)
		}
	}
	for _, id := range staying {
		if _, err := source.Profile(id); err != nil {
			t.Fatalf("staying user %d lost in drop: %v", id, err)
		}
	}
}

func TestFilterWaveForSlots(t *testing.T) {
	clk := clock.NewSimulated(t0)
	s, err := New(replTestOpts(t.TempDir(), clk, store.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := []uint64{1, 2, 3, 4}
	for _, id := range ids {
		if err := s.Register(id, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	var batch []lifelog.Event
	for _, id := range ids {
		batch = append(batch, lifelog.Event{UserID: id, Time: t0, Type: lifelog.EventClick, Action: uint32(id)})
	}
	ingestWave(t, s, [][]lifelog.Event{batch})

	// Scan the whole log, registrations included: the filter must keep
	// exactly the in-slot user's data across all records.
	lastLSN, _ := s.AppliedLSN()
	tail, err := s.TailLog(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	slots := slotsOfUsers(ids[:1])
	totalEntries, totalEvents := 0, 0
	for lsn := uint64(1); lsn <= lastLSN; {
		rec, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		lsn = rec.LSN + 1
		ann, entries, err := FilterWaveForSlots(rec.Annotation, rec.Entries, slots)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			id, ok := sumKeyUser(e.Key)
			if !ok || !slots.Has(keyspace.Partition(id)) {
				t.Fatalf("filtered entries leaked key %q", e.Key)
			}
		}
		events, err := decodeWaveAnnotation(ann)
		if err != nil {
			t.Fatal(err)
		}
		for _, te := range events {
			if !slots.Has(keyspace.Partition(te.UserID)) {
				t.Fatalf("filtered annotation leaked user %d", te.UserID)
			}
		}
		if len(events) > 0 && len(entries) == 0 {
			t.Fatal("annotation survived with no entries")
		}
		totalEntries += len(entries)
		totalEvents += len(events)
	}
	if totalEntries == 0 || totalEvents == 0 {
		t.Fatalf("filter dropped the in-slot user: %d entries, %d events", totalEntries, totalEvents)
	}
}

// TestFilterWaveForSlotsMultiShardRecord: a wave whose users fall in
// several slots and shards is one log record. Projecting it onto one of
// those slots keeps exactly that slot's entries and annotation events, in
// record order; projecting it onto a slot the wave never touched yields
// nothing, so a handoff stream skips it rather than ship an empty wave.
func TestFilterWaveForSlotsMultiShardRecord(t *testing.T) {
	clk := clock.NewSimulated(t0)
	s, err := New(replTestOpts(t.TempDir(), clk, store.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A user in each of the 4 shards, so in 4 slots, and a second user in
	// the first one's slot.
	var ids []uint64
	bySlot := map[int][]uint64{}
	taken := map[int]bool{}
	for id := uint64(1); len(ids) < 5; id++ {
		slot, idx := keyspace.Partition(id), s.shardIndexFor(id)
		if len(ids) < 4 && !taken[idx] || len(ids) == 4 && slot == keyspace.Partition(ids[0]) {
			taken[idx] = true
			bySlot[slot] = append(bySlot[slot], id)
			ids = append(ids, id)
		}
	}
	var batch []lifelog.Event
	for _, id := range ids {
		if err := s.Register(id, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 2; e++ {
			batch = append(batch, lifelog.Event{UserID: id, Time: t0.Add(time.Duration(e) * time.Minute), Type: lifelog.EventClick, Action: uint32(id) + uint32(e)})
		}
	}
	from, _ := s.AppliedLSN()
	pm := s.PrepareMulti([][]lifelog.Event{batch})
	if pm.Shards() < 3 {
		t.Fatalf("wave spans %d shards, want at least 3", pm.Shards())
	}
	for _, out := range pm.Commit() {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	if to, _ := s.AppliedLSN(); to != from+1 {
		t.Fatalf("wave took LSNs %d..%d, want one record", from+1, to)
	}
	tail, err := s.TailLog(from + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	rec, err := tail.Next()
	if err != nil {
		t.Fatal(err)
	}
	events, err := decodeWaveAnnotation(rec.Annotation)
	if err != nil {
		t.Fatal(err)
	}
	for slot, users := range bySlot {
		var slots keyspace.SlotSet
		slots.Add(slot)
		ann, entries, err := FilterWaveForSlots(rec.Annotation, rec.Entries, &slots)
		if err != nil {
			t.Fatal(err)
		}
		var wantEntries []store.LogEntry
		for _, e := range rec.Entries {
			if id, _ := sumKeyUser(e.Key); keyspace.Partition(id) == slot {
				wantEntries = append(wantEntries, e)
			}
		}
		var wantEvents []taggedEvent
		for _, te := range events {
			if keyspace.Partition(te.UserID) == slot {
				wantEvents = append(wantEvents, te)
			}
		}
		gotEvents, err := decodeWaveAnnotation(ann)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantEntries) != len(users) || len(wantEvents) != 2*len(users) {
			t.Fatalf("slot %d: the record holds %d entries and %d events of its %d users", slot, len(wantEntries), len(wantEvents), len(users))
		}
		if !reflect.DeepEqual(entries, wantEntries) || !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Fatalf("slot %d: projection kept %d entries and events %v; want %d entries and %v", slot, len(entries), gotEvents, len(wantEntries), wantEvents)
		}
	}

	var untouched keyspace.SlotSet
	for slot := 0; untouched.Count() == 0; slot++ {
		if _, ok := bySlot[slot]; !ok {
			untouched.Add(slot)
		}
	}
	// No entries is what a handoff stream (the server's shipThrough, and
	// shipHandoff here) skips a record on.
	ann, entries, err := FilterWaveForSlots(rec.Annotation, rec.Entries, &untouched)
	if err != nil || ann != nil || len(entries) != 0 {
		t.Fatalf("untouched slot: projection %d annotation bytes, %d entries, %v; want nothing", len(ann), len(entries), err)
	}
}
