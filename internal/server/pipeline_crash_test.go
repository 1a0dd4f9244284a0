package server

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/sum"
)

// TestPipelinedCrashOrdering is the crash half of the pipelining ordering
// argument, end-to-end: two successive waves flow through the pipelined
// dispatcher into a real durable core; the store dies between the commits;
// WAL replay after the "crash" must never surface wave N+1's same-shard
// state without wave N's. Here that means: wave N is fully recovered, wave
// N+1 — whose commit the dead device rejected — is absent, and the live
// process's shard memory agrees with the durable state for both waves.
func TestPipelinedCrashOrdering(t *testing.T) {
	const users = 8
	fo := &store.KillableFileOps{}
	dir := t.TempDir()
	spa, err := core.New(core.Options{
		DataDir: dir,
		Store:   store.Options{SyncWrites: true, DisableAutoCompaction: true, FileOps: fo},
		Shards:  4,
		Clock:   clock.NewSimulated(t0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer spa.Close()
	for u := uint64(1); u <= users; u++ {
		if err := spa.Register(u, nil); err != nil {
			t.Fatal(err)
		}
	}
	c := newCoalescer(spaPreparer{spa: spa}, nil, 64, 64, time.Millisecond, 0, nil)
	defer c.close()

	submitWave := func(seq int) []error {
		var wg sync.WaitGroup
		errs := make([]error, users)
		for u := uint64(1); u <= users; u++ {
			wg.Add(1)
			go func(u uint64) {
				defer wg.Done()
				out, _, err := c.submit(context.Background(),
					[]lifelog.Event{evAt(u, seq), evAt(u, seq+1)})
				if err == nil {
					err = out.Err
				}
				errs[u-1] = err
			}(u)
		}
		wg.Wait()
		return errs
	}

	// Wave N commits while the device is healthy.
	for u, err := range submitWave(1) {
		if err != nil {
			t.Fatalf("wave N user %d: %v", u+1, err)
		}
	}
	waveN := map[uint64][]byte{}
	for u := uint64(1); u <= users; u++ {
		p, err := spa.Profile(u)
		if err != nil {
			t.Fatal(err)
		}
		waveN[u] = sum.Encode(&p)
	}

	// The device dies between the two commits; wave N+1 must fail...
	fo.Kill()
	for u, err := range submitWave(10) {
		if err == nil {
			t.Fatalf("wave N+1 user %d: commit on a dead device reported success", u+1)
		}
	}
	// ...and the failed wave must not be visible in shard memory either.
	for u := uint64(1); u <= users; u++ {
		p, err := spa.Profile(u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sum.Encode(&p), waveN[u]) {
			t.Fatalf("user %d: failed wave N+1 leaked into shard memory", u)
		}
	}

	// Crash: reopen the directory without closing (the dead process still
	// holds its file handles; replay sees only what reached the log).
	spa2, err := core.New(core.Options{DataDir: dir, Shards: 4, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer spa2.Close()
	for u := uint64(1); u <= users; u++ {
		p, err := spa2.Profile(u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sum.Encode(&p), waveN[u]) {
			t.Fatalf("user %d: replay diverged from wave N (wave N+1 surfacing without it, or wave N lost)", u)
		}
	}
}
