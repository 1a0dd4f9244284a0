package scalebench

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/spaclient"
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
	// Shifted sets must be disjoint per client.
	shifted := MakeBurstsFor(Users)
	for _, b := range shifted {
		for _, e := range b {
			if seen[e.UserID] {
				t.Fatalf("user %d appears in two clients' ranges", e.UserID)
			}
		}
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
		processed, skipped, err := spa.IngestEvents(bursts[i%int64(len(bursts))])
		if err == nil && (processed != EventsPerBurst || skipped != 0) {
			return errors.New("burst not fully processed")
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestS2Smoke runs the loadgen end-to-end: a live serving stack on
// loopback, driven by concurrent wire clients.
func TestS2Smoke(t *testing.T) {
	spa, err := core.New(core.Options{Shards: 4, Clock: clock.NewSimulated(clock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(spa, server.Options{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
		spa.Close()
	}()

	const usersPerRequest = 8
	res, err := RunLoadgen(LoadgenConfig{
		BaseURL:         ts.URL,
		Clients:         2,
		Requests:        8,
		Register:        true,
		UsersPerRequest: usersPerRequest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen errors: %+v", res)
	}
	if want := res.Requests * usersPerRequest * PerUser; res.Events != want {
		t.Fatalf("events %d, want %d", res.Events, want)
	}
	if res.EventsPerSec <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("degenerate measurements: %+v", res)
	}
	if res.MeanCoalesced < 1 {
		t.Fatalf("mean coalesced %f < 1", res.MeanCoalesced)
	}
	if spa.Users() != 2*Users {
		t.Fatalf("registered %d users, want %d", spa.Users(), 2*Users)
	}
}

// TestS4Smoke drives the live stack through its one dispatcher, the
// two-stage pipelined coalescer: every event must be delivered, and once
// the loadgen returns the pipeline must be quiesced with every event
// accounted for in the stack's own metrics.
func TestS4Smoke(t *testing.T) {
	spa, err := core.New(core.Options{Shards: 4, Clock: clock.NewSimulated(clock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(spa, server.Options{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
		spa.Close()
	}()

	const usersPerRequest = 8
	res, err := RunLoadgen(LoadgenConfig{
		BaseURL:         ts.URL,
		Clients:         2,
		Requests:        8,
		Register:        true,
		UsersPerRequest: usersPerRequest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen errors: %+v", res)
	}
	if want := res.Requests * usersPerRequest * PerUser; res.Events != want {
		t.Fatalf("events %d, want %d", res.Events, want)
	}
	m, err := spaclient.New(ts.URL, spaclient.Options{}).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.PipelineDepth != 0 {
		t.Fatalf("pipeline depth %d after quiesce", m.PipelineDepth)
	}
	if m.IngestEvents != uint64(res.Events) {
		t.Fatalf("stack accounted %d of %d events", m.IngestEvents, res.Events)
	}
}

// TestS3Smoke runs a miniature of spabench's [S3] section: the same stack
// driven once with binary-framed clients and once JSON-only — both modes
// must deliver every event, and the binary mode must actually have
// negotiated the framing.
func TestS3Smoke(t *testing.T) {
	spa, err := core.New(core.Options{Shards: 4, Clock: clock.NewSimulated(clock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(spa, server.Options{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
		spa.Close()
	}()

	const usersPerRequest = 8
	var binaryRequests uint64
	for _, jsonOnly := range []bool{false, true} {
		res, err := RunLoadgen(LoadgenConfig{
			BaseURL:         ts.URL,
			Clients:         2,
			Requests:        8,
			Register:        true,
			UsersPerRequest: usersPerRequest,
			JSONOnly:        jsonOnly,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("jsonOnly=%v: loadgen errors: %+v", jsonOnly, res)
		}
		if want := res.Requests * usersPerRequest * PerUser; res.Events != want {
			t.Fatalf("jsonOnly=%v: events %d, want %d", jsonOnly, res.Events, want)
		}
		if jsonOnly {
			continue
		}
		// The binary pass must have spoken binary for every request.
		c := spaclient.New(ts.URL, spaclient.Options{})
		m, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		binaryRequests = m.IngestBinary
		if binaryRequests != uint64(res.Requests) {
			t.Fatalf("binary pass negotiated %d of %d requests", binaryRequests, res.Requests)
		}
	}
	// The JSON-only pass must not have added any binary requests.
	c := spaclient.New(ts.URL, spaclient.Options{})
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.IngestBinary != binaryRequests {
		t.Fatalf("JSON-only pass spoke binary: %d -> %d", binaryRequests, m.IngestBinary)
	}
}

// TestS5Smoke runs a miniature of spabench's [S5] section: the same live
// stack driven once over per-request binary HTTP and once over persistent
// binary streams — both must deliver every event, the stream pass must
// actually have streamed every frame, and the sessions must be gone once
// the loadgen returns.
func TestS5Smoke(t *testing.T) {
	spa, err := core.New(core.Options{Shards: 4, Clock: clock.NewSimulated(clock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(spa, server.Options{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
		spa.Close()
	}()

	const usersPerRequest = 8
	for _, stream := range []bool{false, true} {
		res, err := RunLoadgen(LoadgenConfig{
			BaseURL:         ts.URL,
			Clients:         2,
			Requests:        8,
			Register:        true,
			UsersPerRequest: usersPerRequest,
			Stream:          stream,
			StreamWindow:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("stream=%v: loadgen errors: %+v", stream, res)
		}
		if want := res.Requests * usersPerRequest * PerUser; res.Events != want {
			t.Fatalf("stream=%v: events %d, want %d", stream, res.Events, want)
		}
		if !stream {
			continue
		}
		c := spaclient.New(ts.URL, spaclient.Options{})
		m, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if m.StreamFrames != uint64(res.Requests) {
			t.Fatalf("stream pass framed %d of %d requests", m.StreamFrames, res.Requests)
		}
		if m.StreamConns != 0 {
			t.Fatalf("%d stream sessions survive the loadgen", m.StreamConns)
		}
	}
}
