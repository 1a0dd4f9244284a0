package scalebench

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

func TestMakeBurstsShape(t *testing.T) {
	bursts := MakeBursts()
	if len(bursts) != Users/BurstSize {
		t.Fatalf("bursts %d, want %d", len(bursts), Users/BurstSize)
	}
	seen := map[uint64]bool{}
	for _, b := range bursts {
		if len(b) != EventsPerBurst {
			t.Fatalf("burst has %d events, want %d", len(b), EventsPerBurst)
		}
		last := map[uint64]time.Time{}
		for _, e := range b {
			seen[e.UserID] = true
			if prev, ok := last[e.UserID]; ok && e.Time.Before(prev) {
				t.Fatalf("user %d out of order within burst", e.UserID)
			}
			last[e.UserID] = e.Time
		}
	}
	if len(seen) != Users {
		t.Fatalf("bursts cover %d users, want %d", len(seen), Users)
	}
}

func TestRunWorkersDrainsAndReportsFirstError(t *testing.T) {
	boom := errors.New("boom")
	var hits [64]bool
	err := RunWorkers(64, func(i int64) error {
		hits[i] = true
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if err := RunWorkers(16, func(int64) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestS1Smoke runs a miniature of BenchmarkShardedIngest: the shared burst
// workload through a sharded in-memory core via the worker pool.
func TestS1Smoke(t *testing.T) {
	spa, err := core.New(core.Options{Shards: 8, Clock: clock.NewSimulated(clock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	defer spa.Close()
	for u := 1; u <= Users; u++ {
		if err := spa.Register(uint64(u), nil); err != nil {
			t.Fatal(err)
		}
	}
	bursts := MakeBursts()
	const n = 8
	if err := RunWorkers(n, func(i int64) error {
		processed, skipped, err := spa.BatchIngest(bursts[i%int64(len(bursts))])
		if err == nil && (processed != EventsPerBurst || skipped != 0) {
			return errors.New("burst not fully processed")
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
