package core

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/sum"
)

func clickAt(user uint64, at time.Time, action uint32) lifelog.Event {
	return lifelog.Event{UserID: user, Time: at, Type: lifelog.EventClick, Action: action}
}

// TestMultiIngestMatchesConcatenated is the coalescing equivalence: merging
// K batches into one PrepareMulti wave must leave every profile
// byte-identical to one BatchIngest over the concatenated stream — no event
// lost, no reordering — while attributing counts per batch. (Sequential
// per-batch calls are NOT the reference: each ingest call replaces the
// subjective digest with its own extractor output, so a merged call sees
// strictly more history per user than the last of K separate calls.)
func TestMultiIngestMatchesConcatenated(t *testing.T) {
	const users = 40
	base := t0.Add(-24 * time.Hour)
	var batches [][]lifelog.Event
	for b := 0; b < 6; b++ {
		var evs []lifelog.Event
		for u := 0; u < users; u++ {
			id := uint64(1 + u)
			// Later batches carry later timestamps, as sequential requests
			// from one submitter would.
			for i := 0; i < 3; i++ {
				evs = append(evs, clickAt(id, base.Add(time.Duration(b*100+i)*time.Second),
					uint32((b*31+u*7+i)%lifelog.ActionUniverse)))
			}
		}
		batches = append(batches, evs)
	}

	newCore := func() *SPA {
		s, err := New(Options{Shards: 8, Clock: clock.NewSimulated(t0)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		for u := 0; u < users; u++ {
			if err := s.Register(uint64(1+u), nil); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	seq := newCore()
	var concat []lifelog.Event
	for _, b := range batches {
		concat = append(concat, b...)
	}
	wantTotal, sk, err := seq.BatchIngest(concat)
	if err != nil || sk != 0 {
		t.Fatalf("concatenated ingest: processed %d skipped %d err %v", wantTotal, sk, err)
	}

	merged := newCore()
	outs := merged.PrepareMulti(batches).Commit()
	gotTotal := 0
	for b, out := range outs {
		if out.Err != nil || out.SkippedUnknown != 0 || out.Processed != len(batches[b]) {
			t.Fatalf("batch %d: outcome %+v, want processed %d", b, out, len(batches[b]))
		}
		gotTotal += out.Processed
	}
	if gotTotal != wantTotal {
		t.Fatalf("merged processed %d, concatenated %d", gotTotal, wantTotal)
	}
	for u := 0; u < users; u++ {
		id := uint64(1 + u)
		p1, err := seq.Profile(id)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := merged.Profile(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sum.Encode(&p1), sum.Encode(&p2)) {
			t.Fatalf("user %d: sequential and merged ingest diverge", id)
		}
	}
}

// TestMultiIngestAttribution: skipped-unknown counts land on the batch that
// carried the unknown user's events, not on its co-committed neighbours.
func TestMultiIngestAttribution(t *testing.T) {
	s, err := New(Options{Shards: 4, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Register(1, nil)
	s.Register(2, nil)
	at := t0.Add(-time.Hour)
	outs := s.PrepareMulti([][]lifelog.Event{
		{clickAt(1, at, 5), clickAt(2, at, 6)},
		{clickAt(99, at, 7), clickAt(1, at.Add(time.Second), 8)},
		nil,
	}).Commit()
	if outs[0].Processed != 2 || outs[0].SkippedUnknown != 0 || outs[0].Err != nil {
		t.Fatalf("batch 0: %+v", outs[0])
	}
	if outs[1].Processed != 1 || outs[1].SkippedUnknown != 1 || outs[1].Err != nil {
		t.Fatalf("batch 1: %+v", outs[1])
	}
	if outs[2] != (IngestOutcome{}) {
		t.Fatalf("empty batch: %+v", outs[2])
	}
}

// TestMultiIngestBadBatchExcluded: a batch that breaks the merged per-user
// stream is charged the error and excluded; the surviving batches apply and
// the result matches ingesting only the good batches.
func TestMultiIngestBadBatchExcluded(t *testing.T) {
	base := t0.Add(-2 * time.Hour)
	good1 := []lifelog.Event{clickAt(1, base, 5), clickAt(1, base.Add(time.Second), 6)}
	// Internally out-of-order: rejected by sessionization wherever it runs.
	bad := []lifelog.Event{clickAt(2, base.Add(time.Hour), 7), clickAt(2, base, 8)}
	good2 := []lifelog.Event{clickAt(1, base.Add(2*time.Second), 9), clickAt(2, base.Add(time.Minute), 10)}

	newCore := func() *SPA {
		// One shard forces every batch into the same merged stream — the
		// hardest case for exclusion.
		s, err := New(Options{Shards: 1, Clock: clock.NewSimulated(t0)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		s.Register(1, nil)
		s.Register(2, nil)
		return s
	}

	s := newCore()
	outs := s.PrepareMulti([][]lifelog.Event{good1, bad, good2}).Commit()
	if outs[0].Err != nil || outs[0].Processed != 2 {
		t.Fatalf("good batch 0: %+v", outs[0])
	}
	if outs[1].Err == nil || outs[1].Processed != 0 {
		t.Fatalf("bad batch: %+v", outs[1])
	}
	if outs[2].Err != nil || outs[2].Processed != 2 {
		t.Fatalf("good batch 2: %+v", outs[2])
	}

	// Reference: the surviving batches as one stream, in merged order.
	want := newCore()
	if _, _, err := want.BatchIngest(append(append([]lifelog.Event(nil), good1...), good2...)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1, 2} {
		pGot, err := s.Profile(id)
		if err != nil {
			t.Fatal(err)
		}
		pWant, err := want.Profile(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sum.Encode(&pGot), sum.Encode(&pWant)) {
			t.Fatalf("user %d: exclusion changed surviving batches' result", id)
		}
	}
}

// TestMultiIngestConflictingBatches: two batches that are each well-formed
// but collide on the same user (the later-arriving one rewinds the user's
// clock) resolve by excluding the later batch only.
func TestMultiIngestConflictingBatches(t *testing.T) {
	base := t0.Add(-2 * time.Hour)
	s, err := New(Options{Shards: 1, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Register(1, nil)
	outs := s.PrepareMulti([][]lifelog.Event{
		{clickAt(1, base.Add(time.Hour), 5)},
		{clickAt(1, base, 6)}, // rewinds user 1 within the merged stream
	}).Commit()
	if outs[0].Err != nil || outs[0].Processed != 1 {
		t.Fatalf("first batch: %+v", outs[0])
	}
	if outs[1].Err == nil || outs[1].Processed != 0 {
		t.Fatalf("conflicting batch: %+v", outs[1])
	}
}

// TestMultiIngestDurable: merged batches group-commit through the store and
// survive a reopen.
func TestMultiIngestDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{DataDir: dir, Shards: 4, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	for u := uint64(1); u <= 8; u++ {
		if err := s.Register(u, nil); err != nil {
			t.Fatal(err)
		}
	}
	at := t0.Add(-time.Hour)
	var batches [][]lifelog.Event
	for u := uint64(1); u <= 8; u++ {
		batches = append(batches, []lifelog.Event{clickAt(u, at, uint32(u)), clickAt(u, at.Add(time.Second), uint32(u+1))})
	}
	for b, out := range s.PrepareMulti(batches).Commit() {
		if out.Err != nil || out.Processed != 2 {
			t.Fatalf("batch %d: %+v", b, out)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{DataDir: dir, Shards: 4, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for u := uint64(1); u <= 8; u++ {
		p, err := s2.Profile(u)
		if err != nil {
			t.Fatal(err)
		}
		nonzero := false
		for _, v := range p.Subjective {
			if v != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Fatalf("user %d: merged ingest not persisted", u)
		}
	}
}

// TestPublishedProfileOwnership: a published profile is immutable. Each
// wave stages a user's next profile in an allocation of its own, while
// one prepare worker reuses its Extractor and feature-vector buffer for
// every group it claims. With GOMAXPROCS 1 a single worker prepares every
// group, so a wave for other users runs through the very buffers that
// filled the held profiles; the held profiles must keep their bytes across
// that wave and across later waves for their own users.
func TestPublishedProfileOwnership(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, err := New(Options{DataDir: t.TempDir(), Store: store.Options{DisableAutoCompaction: true},
		Shards: 16, Clock: clock.NewSimulated(t0.Add(time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for id := uint64(1); id <= 32; id++ {
		if err := s.Register(id, []float64{float64(id), 2}); err != nil {
			t.Fatal(err)
		}
	}
	minute := 0
	wave := func(ids ...uint64) {
		t.Helper()
		var frame []lifelog.Event
		for _, id := range ids {
			for e := 0; e < 3; e++ {
				frame = append(frame, clickAt(id, t0.Add(time.Duration(minute)*time.Minute), uint32(int(id)*11+minute)))
				minute++
			}
		}
		if out := s.PrepareMulti([][]lifelog.Event{frame}).Commit()[0]; out.Err != nil || out.Processed != len(frame) {
			t.Fatalf("wave %v: %+v", ids, out)
		}
	}
	type held struct {
		p        *sum.Profile
		sub, obj []uint64
	}
	hold := func(id uint64) held {
		p, err := s.viewProfile(id)
		if err != nil {
			t.Fatal(err)
		}
		return held{p, float64Bits(p.Subjective), float64Bits(p.Objective)}
	}
	check := func(when string, hs map[uint64]held) {
		t.Helper()
		for id, h := range hs {
			if got := float64Bits(h.p.Subjective); !slices.Equal(got, h.sub) {
				t.Fatalf("%s: user %d's held Subjective changed:\n got %x\nwant %x", when, id, got, h.sub)
			}
			if got := float64Bits(h.p.Objective); !slices.Equal(got, h.obj) {
				t.Fatalf("%s: user %d's held Objective changed:\n got %x\nwant %x", when, id, got, h.obj)
			}
		}
	}

	wave(1)
	first := map[uint64]held{1: hold(1)}
	wave(1)
	wave(1, 2)
	if cur := hold(1); slices.Equal(cur.sub, first[1].sub) {
		t.Fatal("user 1's later waves left its Subjective unchanged; the test shows nothing")
	}
	check("after two more waves for user 1", first)

	others := []uint64{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	wave(others...)
	last := map[uint64]held{}
	for _, id := range others {
		last[id] = hold(id)
	}
	wave(append([]uint64{1, 2}, others[:4]...)...)
	wave(17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32)
	check("after waves for other users", first)
	check("after waves for other users", last)
}

func float64Bits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// TestRecordRunPacksWholeGroups drives the wave record packer with a small
// cap: groups pack in order into as few records as fit, a record ends only
// at a group boundary, a group that persists nothing rides along, and a
// group over the cap stands alone, for the store to refuse.
func TestRecordRunPacksWholeGroups(t *testing.T) {
	group := func(entries, bytes, events int) preparedGroup {
		return preparedGroup{size: recordSize{entries: entries, bytes: bytes, events: events}}
	}
	runs := func(groups []preparedGroup, limit int) []int {
		var ns []int
		for len(groups) > 0 {
			n, sz := recordRun(groups, limit)
			if bound := store.RecordBound(sz.entries, sz.bytes+waveAnnotationBound(sz.events)); n > 1 && bound > limit {
				t.Fatalf("a run of %d groups bounds %d bytes, over the %d-byte cap", n, bound, limit)
			}
			ns, groups = append(ns, n), groups[n:]
		}
		return ns
	}
	// Exactly two one-entry groups of 100 bytes and 4 events fit.
	limit := store.RecordBound(2, 200+waveAnnotationBound(8))
	groups := []preparedGroup{
		group(1, 100, 4), group(1, 100, 4), // full
		group(1, 100, 4), group(0, 0, 0), group(1, 100, 4), // full, with an empty group
		group(1, 100, 4), group(1, 101, 4), // one byte over
		group(3, 300, 0), // over the cap alone
		group(1, 1, 1),
	}
	if got := runs(groups, limit); !slices.Equal(got, []int{2, 3, 1, 1, 1, 1}) {
		t.Fatalf("runs %v, want [2 3 1 1 1 1]", got)
	}
	if got := runs(groups, store.MaxRecordBytes); !slices.Equal(got, []int{len(groups)}) {
		t.Fatalf("under the store's cap: runs %v, want one record", got)
	}
}

// TestWaveIsOneRecord: a wave spanning many shards is one log record, and
// the packer's size of it is the record's: its entries and their key and
// value bytes exactly, its annotation within waveAnnotationBound.
func TestWaveIsOneRecord(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir(), Shards: 16, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var evs []lifelog.Event
	for id := uint64(100); id <= 4000; id += 100 {
		if err := s.Register(id, []float64{float64(id)}); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 3; e++ {
			evs = append(evs, clickAt(id, t0.Add(time.Duration(e)*time.Minute), uint32(id/5)+uint32(e)))
		}
	}
	from, _ := s.AppliedLSN()
	pm := s.PrepareMulti([][]lifelog.Event{evs})
	if out := pm.Commit()[0]; out.Err != nil || out.Processed != len(evs) {
		t.Fatalf("wave: %+v", out)
	}
	if to, _ := s.AppliedLSN(); to != from+1 {
		t.Fatalf("a %d-shard wave took LSNs %d..%d, want one record", pm.Shards(), from+1, to)
	}
	n, want := recordRun(pm.groups, store.MaxRecordBytes)
	if n != len(pm.groups) || pm.Shards() < 8 {
		t.Fatalf("%d shard groups packed into a run of %d", pm.Shards(), n)
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
	got := 0
	for _, e := range rec.Entries {
		got += len(e.Key) + len(e.Value)
	}
	if len(rec.Entries) != want.entries || got != want.bytes || len(rec.Annotation) > waveAnnotationBound(want.events) {
		t.Fatalf("record: %d entries, %d key/value bytes, %d-byte annotation; sized %d, %d, %d events",
			len(rec.Entries), got, len(rec.Annotation), want.entries, want.bytes, want.events)
	}
	if events, err := decodeWaveAnnotation(rec.Annotation); err != nil || len(events) != len(evs) {
		t.Fatalf("annotation: %d events, %v; want %d", len(events), err, len(evs))
	}
}
