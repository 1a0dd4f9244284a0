//go:build !race

package core

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/sum"
)

// TestWriteAllocCeilings gates the ingest path's allocation count: one
// streamed-frame-shaped wave (8 users × 4 events, PrepareMulti + Commit)
// on a durable, unsynced store, and one Extractor.Feed. The ceilings are
// the measured counts (go1.24, amd64), so a change that brings back a
// per-user map, a per-group slice or a per-key store copy fails here.
// A second pair of waves prices a shard group: the same shape on 8 users
// of one shard, then on 8 users of 8 shards, each user in a bucket of its
// own so both waves touch the same pages. The difference is exactly 7
// groups' residue — the shard snapshot (its bucket array is inline); the
// wave's store WriteBatch, WAL record and encode scratch are one each,
// whatever its groups — so a per-group goroutine, slice, cache or store
// record allocation coming back fails here. AllocsPerRun measures with
// GOMAXPROCS 1, so the prepare runs on the caller alone. The race detector
// changes allocation counts, so the file builds only without it.
func TestWriteAllocCeilings(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir(), Store: store.Options{DisableAutoCompaction: true},
		Shards: 16, Clock: clock.NewSimulated(t0.Add(time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	frame := make([]lifelog.Event, 0, 32)
	for id := uint64(1); id <= 8; id++ {
		if err := s.Register(id, []float64{float64(id), 1}); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 4; e++ {
			frame = append(frame, clickAt(id, t0.Add(time.Duration(e)*time.Minute), uint32(int(id)*7+e)))
		}
	}
	batches := [][]lifelog.Event{frame}
	wave := func() {
		if out := s.PrepareMulti(batches).Commit()[0]; out.Err != nil || out.Processed != len(frame) {
			t.Fatalf("wave: %+v", out)
		}
	}
	wave() // the users' CF rows reach their steady size

	x := lifelog.NewExtractor(30*time.Minute, t0.Add(time.Hour))
	ev := clickAt(1, t0, 5)
	if err := x.Feed(ev); err != nil {
		t.Fatal(err)
	}
	feed := func() {
		ev.Time = ev.Time.Add(time.Second)
		if err := x.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		name    string
		f       func()
		ceiling float64
	}{
		{"PrepareMulti+Commit, 8 users × 4 events", wave, 65},
		{"Extractor.Feed, known user", feed, 0},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.ceiling {
			t.Errorf("%s: %.1f allocs, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %.1f allocs, ceiling %.0f", c.name, got, c.ceiling)
		}
	}

	// Two more user sets, registered past the first: one shard's, and one
	// per shard. No two users of either set share a bucket.
	var oneShard, spread []uint64
	shards, buckets := map[int]bool{}, map[int]bool{}
	for id := uint64(1000); len(oneShard) < 8 || len(spread) < 8; id++ {
		idx, c := s.place(id)
		switch {
		case idx == 0 && len(oneShard) < 8 && !buckets[c.bucket]:
			buckets[c.bucket] = true
			oneShard = append(oneShard, id)
		case idx != 0 && len(spread) < 8 && !shards[idx]:
			shards[idx] = true
			spread = append(spread, id)
		}
	}
	waveOf := func(ids []uint64) func() {
		frame := make([]lifelog.Event, 0, 32)
		for _, id := range ids {
			if err := s.Register(id, []float64{float64(id), 1}); err != nil {
				t.Fatal(err)
			}
			for e := 0; e < 4; e++ {
				frame = append(frame, clickAt(id, t0.Add(time.Duration(e)*time.Minute), uint32(int(id%97)*7+e)))
			}
		}
		batches := [][]lifelog.Event{frame}
		f := func() {
			if out := s.PrepareMulti(batches).Commit()[0]; out.Err != nil || out.Processed != len(frame) {
				t.Fatalf("wave: %+v", out)
			}
		}
		f()
		return f
	}
	waveOne, waveSpread := waveOf(oneShard), waveOf(spread)
	const perGroup = 1 // snapshot
	one, many := testing.AllocsPerRun(100, waveOne), testing.AllocsPerRun(100, waveSpread)
	if got := many - one; got > 7*perGroup {
		t.Errorf("8 users on 8 shards: %.1f allocs more than on 1 shard (%.1f), ceiling %d", got, one, 7*perGroup)
	} else {
		t.Logf("8 users on 8 shards: %.1f allocs more than on 1 shard (%.1f), ceiling %d", got, one, 7*perGroup)
	}
}

// TestGroupShippedAllocs gates the follower's decode of a shipped run:
// each profile entry costs one allocation (a shippedProfile: the Profile
// and the floats its two vectors are carved from), a record costs nothing
// more — its annotation's events decode into the run's one event buffer —
// and the run pays a constant on top, whatever its length.
func TestGroupShippedAllocs(t *testing.T) {
	s, err := New(Options{Shards: 16, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	run := func(records, profiles int) []store.LogRecord {
		recs := make([]store.LogRecord, records)
		id := uint64(1)
		for i := range recs {
			var entries []store.LogEntry
			var events []taggedEvent
			for j := 0; j < profiles; j++ {
				p := sum.NewProfile(id, t0)
				p.Objective, p.Subjective = []float64{30, 1}, []float64{0.5, 2, 3}
				entries = append(entries, store.LogEntry{Key: sum.Key(id), Value: sum.Encode(p)})
				for e := 0; e < 4; e++ {
					events = append(events, taggedEvent{Event: clickAt(id, t0, uint32(e))})
				}
				id++
			}
			recs[i] = store.LogRecord{LSN: uint64(i + 1), Annotation: encodeWaveAnnotation(events), Entries: entries}
		}
		return recs
	}
	const (
		perRun     = 3
		perRecord  = 0
		perProfile = 1
	)
	for _, shape := range []struct{ records, profiles int }{{1, 1}, {16, 1}, {16, 4}} {
		recs := run(shape.records, shape.profiles)
		got := testing.AllocsPerRun(100, func() {
			if _, err := s.groupShipped(recs, true); err != nil {
				t.Fatal(err)
			}
		})
		ceiling := float64(perRun + perRecord*shape.records + perProfile*shape.records*shape.profiles)
		if got > ceiling {
			t.Errorf("groupShipped, %d records × %d profiles: %.1f allocs, ceiling %.0f", shape.records, shape.profiles, got, ceiling)
		} else {
			t.Logf("groupShipped, %d records × %d profiles: %.1f allocs, ceiling %.0f", shape.records, shape.profiles, got, ceiling)
		}
	}
}
