package server

import (
	"bytes"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/wire"
)

func postBinary(t *testing.T, url string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", wire.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestIngestBinaryJSONEquivalence drives the same event shapes through
// both framings of /v1/ingest on one live server: the outcomes must match
// field for field, both users' profiles must land, and the negotiation
// must be visible in /metrics.
func TestIngestBinaryJSONEquivalence(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 4}, Options{})
	for _, id := range []uint64{1, 2} {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/users", wire.RegisterRequest{UserID: id}, nil); code != http.StatusCreated {
			t.Fatalf("register %d: %d", id, code)
		}
	}
	mk := func(user uint64) []lifelog.Event {
		return []lifelog.Event{
			{UserID: user, Time: t0, Type: lifelog.EventClick, Action: 7, Value: 1.5},
			{UserID: user, Time: t0.Add(time.Second), Type: lifelog.EventEnroll, Action: 7},
			{UserID: 99, Time: t0, Type: lifelog.EventClick, Action: 3}, // unknown either way
		}
	}

	var viaJSON wire.IngestResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(mk(1))}, &viaJSON); code != http.StatusOK {
		t.Fatalf("json ingest: %d", code)
	}

	resp, raw := postBinary(t, ts.URL, wire.EncodeIngestRequest(wire.FromEvents(mk(2))))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary ingest: %d %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !wire.IsBinaryContentType(ct) {
		t.Fatalf("binary request answered with Content-Type %q", ct)
	}
	viaBinary, err := wire.DecodeIngestResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if viaBinary.Processed != viaJSON.Processed || viaBinary.SkippedUnknown != viaJSON.SkippedUnknown {
		t.Fatalf("binary outcome %+v != json outcome %+v", viaBinary, viaJSON)
	}
	if viaBinary.Processed != 2 || viaBinary.SkippedUnknown != 1 {
		t.Fatalf("binary outcome: %+v", viaBinary)
	}

	var m wire.Metrics
	if code, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatal("metrics failed")
	}
	if m.IngestRequests != 2 || m.IngestBinary != 1 {
		t.Fatalf("negotiation accounting: requests %d binary %d", m.IngestRequests, m.IngestBinary)
	}
	if spa.Users() != 2 {
		t.Fatalf("users: %d", spa.Users())
	}
}

// TestIngestBinaryErrors: malformed frames are the client's 400 (as JSON),
// oversized frames die on the shared body cap with 413, and a malformed
// event stream inside a well-formed frame still gets the domain's 400.
func TestIngestBinaryErrors(t *testing.T) {
	ts, _ := testServer(t, core.Options{Shards: 1}, Options{MaxBodyBytes: 4096})
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/users", wire.RegisterRequest{UserID: 1}, nil); code != http.StatusCreated {
		t.Fatal("register failed")
	}

	if resp, _ := postBinary(t, ts.URL, []byte("not a frame")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed frame: %d", resp.StatusCode)
	}

	var big []lifelog.Event
	for seq := 1; seq <= 1024; seq++ {
		big = append(big, evAt(1, seq))
	}
	if resp, _ := postBinary(t, ts.URL, wire.EncodeIngestRequest(wire.FromEvents(big))); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame: %d", resp.StatusCode)
	}

	outOfOrder := []lifelog.Event{evAt(1, 5), evAt(1, 1)}
	if resp, _ := postBinary(t, ts.URL, wire.EncodeIngestRequest(wire.FromEvents(outOfOrder))); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed stream: %d", resp.StatusCode)
	}
}
