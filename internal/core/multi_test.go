package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lifelog"
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
