//go:build !race

package core

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lifelog"
	"repro/internal/store"
)

// TestWriteAllocCeilings gates the ingest path's allocation count: one
// streamed-frame-shaped wave (8 users × 4 events, PrepareMulti + Commit)
// on a durable, unsynced store, and one Extractor.Feed. The ceilings are
// the measured counts (go1.24, amd64), so a change that brings back a
// per-user map, a per-group slice or a per-key store copy fails here. The
// race detector changes allocation counts, so the file builds only
// without it.
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
		{"PrepareMulti+Commit, 8 users × 4 events", wave, 137},
		{"Extractor.Feed, known user", feed, 0},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.ceiling {
			t.Errorf("%s: %.1f allocs, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %.1f allocs, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
