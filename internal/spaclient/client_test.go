package spaclient

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/server"
	"repro/internal/wire"
)

var t0 = clock.Epoch

func liveServer(t *testing.T) (*Client, *core.SPA) {
	t.Helper()
	spa, err := core.New(core.Options{Shards: 4, Clock: clock.NewSimulated(t0.Add(24 * time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(spa, server.Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		spa.Close()
	})
	return New(ts.URL, Options{}), spa
}

func click(user uint64, seq int) lifelog.Event {
	return lifelog.Event{
		UserID: user,
		Time:   t0.Add(time.Duration(seq) * time.Second),
		Type:   lifelog.EventClick,
		Action: uint32(seq % lifelog.ActionUniverse),
	}
}

func TestClientRoundTrip(t *testing.T) {
	c, spa := liveServer(t)

	if err := c.Register(1, []float64{25, 1}); err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if err := c.Register(1, nil); !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate register: %v", err)
	}
	if err := c.Register(2, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := c.Ingest([]lifelog.Event{click(1, 1), click(1, 2), click(99, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Processed != 2 || resp.SkippedUnknown != 1 {
		t.Fatalf("ingest: %+v", resp)
	}

	q, err := c.NextQuestion(1)
	if err != nil || q.Prompt == "" {
		t.Fatalf("question: %+v %v", q, err)
	}
	if err := c.SubmitAnswer(1, q.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Reward(1, []string{"lively", "hopeful"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Punish(1, []string{"frightened"}); err != nil {
		t.Fatal(err)
	}
	sens, err := c.Sensibilities(1)
	if err != nil || len(sens) != 10 {
		t.Fatalf("sensibilities: %v %v", sens, err)
	}
	adv, err := c.Advise(1, "training")
	if err != nil || len(adv.Excitation) != 10 {
		t.Fatalf("advice: %+v %v", adv, err)
	}
	if _, err := c.NextQuestion(42); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown user: %v", err)
	}
	h, err := c.Health()
	if err != nil || h.Users != 2 {
		t.Fatalf("health: %+v %v", h, err)
	}
	m, err := c.Metrics()
	if err != nil || m.IngestRequests != 1 || m.IngestEvents != 3 {
		t.Fatalf("metrics: %+v %v", m, err)
	}
	if spa.Users() != 2 {
		t.Fatalf("users: %d", spa.Users())
	}
}

// TestIngestBinaryNegotiation: against a live server the client speaks
// binary (visible in /metrics).
func TestIngestBinaryNegotiation(t *testing.T) {
	c, _ := liveServer(t)
	if err := c.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Ingest([]lifelog.Event{click(1, 1), click(1, 2)})
	if err != nil || resp.Processed != 2 {
		t.Fatalf("ingest: %+v %v", resp, err)
	}
	m, err := c.Metrics()
	if err != nil || m.IngestBinary != 1 || m.IngestRequests != 1 {
		t.Fatalf("binary not negotiated: %+v %v", m, err)
	}
}

// TestIngestRefusalIsFinal: an ingest the server refuses surfaces as the
// server's status after one binary request (no JSON retry), and a 2xx body
// that is not SPAB is a decode error, not a silently accepted answer.
func TestIngestRefusalIsFinal(t *testing.T) {
	var requests, binary atomic.Int32
	status := atomic.Int32{}
	status.Store(http.StatusUnsupportedMediaType)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if wire.IsBinaryContentType(r.Header.Get("Content-Type")) {
			binary.Add(1)
		}
		w.WriteHeader(int(status.Load()))
		json.NewEncoder(w).Encode(wire.IngestResponse{Processed: 1})
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})

	_, err := c.Ingest([]lifelog.Event{click(1, 1)})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnsupportedMediaType {
		t.Fatalf("415: got %v, want an *APIError with status 415", err)
	}
	if requests.Load() != 1 || binary.Load() != 1 {
		t.Fatalf("415 made %d requests (%d binary), want exactly one binary request", requests.Load(), binary.Load())
	}

	status.Store(http.StatusOK)
	if resp, err := c.Ingest([]lifelog.Event{click(1, 2)}); err == nil {
		t.Fatalf("JSON 2xx answer accepted as %+v", resp)
	}
	if requests.Load() != 2 || binary.Load() != 2 {
		t.Fatalf("after the JSON answer: %d requests (%d binary), want 2 binary", requests.Load(), binary.Load())
	}
}

// TestStreamNeedsHTTPBase: streamed ingest has no TLS upgrade, so an
// https:// base fails with an error naming the base, before any dial.
func TestStreamNeedsHTTPBase(t *testing.T) {
	si := New("https://127.0.0.1:1", Options{}).Stream(StreamOptions{})
	defer si.Close()
	_, err := si.Ingest([]lifelog.Event{click(1, 1)})
	if err == nil || !strings.Contains(err.Error(), "http://") || !strings.Contains(err.Error(), "https://127.0.0.1:1") {
		t.Fatalf("https base: got %v, want an error asking for an http:// base", err)
	}
}
