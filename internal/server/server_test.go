package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/wire"
)

// testServer boots a full HTTP server around a fresh in-memory core.
func testServer(t *testing.T, copts core.Options, sopts Options) (*httptest.Server, *core.SPA) {
	t.Helper()
	if copts.Clock == nil {
		copts.Clock = clock.NewSimulated(t0.Add(24 * time.Hour))
	}
	spa, err := core.New(copts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(spa, sopts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		spa.Close()
	})
	return ts, spa
}

func doJSON(t *testing.T, method, url string, in any, out any) (int, http.Header) {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func TestAPILifecycle(t *testing.T) {
	ts, _ := testServer(t, core.Options{Shards: 4}, Options{})

	// Register; duplicate is a conflict.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/users", wire.RegisterRequest{UserID: 1, Objective: []float64{30, 1}}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/users", wire.RegisterRequest{UserID: 1}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate register: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/users", wire.RegisterRequest{UserID: 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("zero user id: %d", code)
	}

	// Ingest: two known-user events, one unknown.
	events := []lifelog.Event{
		{UserID: 1, Time: t0, Type: lifelog.EventClick, Action: 7},
		{UserID: 1, Time: t0.Add(time.Second), Type: lifelog.EventEnroll, Action: 7},
		{UserID: 9, Time: t0, Type: lifelog.EventClick, Action: 3},
	}
	var ing wire.IngestResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(events)}, &ing); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	if ing.Processed != 2 || ing.SkippedUnknown != 1 || ing.CoalescedWith < 1 {
		t.Fatalf("ingest response: %+v", ing)
	}

	// Malformed stream → the submitter's own 400.
	bad := []lifelog.Event{
		{UserID: 1, Time: t0.Add(time.Hour), Type: lifelog.EventClick, Action: 1},
		{UserID: 1, Time: t0, Type: lifelog.EventClick, Action: 2},
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(bad)}, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed ingest: %d", code)
	}

	// EIT loop.
	var q wire.Question
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/users/1/question", nil, &q); code != http.StatusOK {
		t.Fatalf("question: %d", code)
	}
	if q.Prompt == "" || len(q.Options) == 0 {
		t.Fatalf("question: %+v", q)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/users/1/answer", wire.AnswerRequest{ItemID: q.ID, Option: 0}, nil); code != http.StatusOK {
		t.Fatalf("answer: %d", code)
	}

	// Reinforcement; unknown attribute names are the client's fault.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/users/1/reward", wire.AttributesRequest{Attributes: []string{"lively"}}, nil); code != http.StatusOK {
		t.Fatalf("reward: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/users/1/punish", wire.AttributesRequest{Attributes: []string{"bored"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("punish with bad attribute: %d", code)
	}

	// Reads.
	var sens wire.SensibilitiesResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/users/1/sensibilities", nil, &sens); code != http.StatusOK {
		t.Fatalf("sensibilities: %d", code)
	}
	if len(sens.Sensibilities) != 10 {
		t.Fatalf("sensibilities: %d attributes", len(sens.Sensibilities))
	}
	var adv wire.AdviceResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/users/1/advice?domain=training", nil, &adv); code != http.StatusOK {
		t.Fatalf("advice: %d", code)
	}
	// CF needs a neighbour: user 2 shares action 7 and adds action 3, so
	// user 1 has an unseen action to be recommended.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/users", wire.RegisterRequest{UserID: 2}, nil); code != http.StatusCreated {
		t.Fatal("register user 2 failed")
	}
	neighbour := []lifelog.Event{
		{UserID: 2, Time: t0, Type: lifelog.EventClick, Action: 7},
		{UserID: 2, Time: t0.Add(time.Second), Type: lifelog.EventEnroll, Action: 3},
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(neighbour)}, nil); code != http.StatusOK {
		t.Fatal("neighbour ingest failed")
	}
	var recs wire.RecommendResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/users/1/recommendations?n=3", nil, &recs); code != http.StatusOK {
		t.Fatalf("recommendations: %d", code)
	}
	if len(recs.Recommendations) == 0 {
		t.Fatal("no recommendations after enroll interaction")
	}

	// Propensity before training is a conflict, not a crash.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/users/1/propensity", nil, nil); code != http.StatusConflict {
		t.Fatalf("propensity untrained: %d", code)
	}

	// Unknown users 404 on every per-user route.
	for _, route := range []string{"question", "sensibilities", "advice", "recommendations", "propensity"} {
		code, _ := doJSON(t, "GET", ts.URL+"/v1/users/77/"+route, nil, nil)
		if code != http.StatusNotFound && !(route == "propensity" && code == http.StatusConflict) {
			t.Fatalf("%s for unknown user: %d", route, code)
		}
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/users/zero/question", nil, nil); code != http.StatusBadRequest {
		t.Fatal("non-numeric user id accepted")
	}

	// select-top needs a model; bad k is a 400 regardless.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/select-top?k=x", nil, nil); code != http.StatusBadRequest {
		t.Fatal("bad k accepted")
	}

	// Oversized bodies are refused before they buffer (413, not 400/OOM):
	// a syntactically valid event list past the default 8 MiB cap.
	one := []byte(`{"user_id":1,"time_unix_nano":1,"type":1,"action":5},`)
	var hugeBody bytes.Buffer
	hugeBody.WriteString(`{"events":[`)
	for hugeBody.Len() < 9<<20 {
		hugeBody.Write(one)
	}
	hugeBody.Truncate(hugeBody.Len() - 1)
	hugeBody.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", &hugeBody)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", resp.StatusCode)
	}

	// Health.
	var h wire.Health
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK || h.Status != "ok" || h.Users != 2 {
		t.Fatalf("health: %+v", h)
	}
}

// TestConcurrentClientsEndToEnd is the HTTP-level stress pass: concurrent
// clients ingest disjoint user streams through the full stack (server,
// coalescer, sharded core, group commit) with sync writes on; afterwards
// every event must be accounted for and the metrics must show coalescing.
func TestConcurrentClientsEndToEnd(t *testing.T) {
	const (
		clients     = 8
		requestsPer = 15
		perRequest  = 6
	)
	ts, spa := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 8, Store: store.Options{SyncWrites: true}},
		Options{})

	for cl := 0; cl < clients; cl++ {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/users", wire.RegisterRequest{UserID: uint64(cl + 1)}, nil); code != http.StatusCreated {
			t.Fatalf("register client %d: %d", cl, code)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			user := uint64(cl + 1)
			seq := 0
			for r := 0; r < requestsPer; r++ {
				var events []lifelog.Event
				for e := 0; e < perRequest; e++ {
					seq++
					events = append(events, evAt(user, seq))
				}
				var resp wire.IngestResponse
				code, _ := doJSON(t, "POST", ts.URL+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(events)}, &resp)
				if code != http.StatusOK {
					errCh <- fmt.Errorf("client %d request %d: status %d", cl, r, code)
					return
				}
				if resp.Processed != perRequest {
					errCh <- fmt.Errorf("client %d request %d: processed %d", cl, r, resp.Processed)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	var m wire.Metrics
	if code, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	wantEvents := uint64(clients * requestsPer * perRequest)
	if m.IngestEvents != wantEvents || m.IngestRequests != clients*requestsPer {
		t.Fatalf("metrics accounting: %+v", m)
	}
	if m.IngestCommits == 0 || m.CoalescedRequests != m.IngestRequests {
		t.Fatalf("commit accounting: %+v", m)
	}
	if !m.Durable {
		t.Fatal("metrics claim non-durable for a DataDir-backed core")
	}
	if spa.Users() != clients {
		t.Fatalf("users: %d", spa.Users())
	}
}

// TestIngestBackpressureHTTP: a full pending queue must surface as
// 503 + Retry-After on the wire.
func TestIngestBackpressureHTTP(t *testing.T) {
	ts, _ := testServer(t, core.Options{Shards: 1}, Options{QueueDepth: 1, MaxBatch: 1})

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/users", wire.RegisterRequest{UserID: 1}, nil); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	const submitters = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	saw503 := false
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			events := []lifelog.Event{evAt(1, i+1)}
			code, hdr := doJSON(t, "POST", ts.URL+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(events)}, nil)
			if code == http.StatusServiceUnavailable {
				mu.Lock()
				saw503 = true
				mu.Unlock()
				if hdr.Get("Retry-After") == "" {
					t.Error("503 without Retry-After")
				}
			}
		}(i)
	}
	wg.Wait()
	if !saw503 {
		t.Skip("queue never filled on this machine — backpressure path not exercised")
	}
}

// TestServerDrainOnClose: requests accepted before Close complete; the
// coalescer refuses new work afterwards.
func TestServerDrainOnClose(t *testing.T) {
	spa, err := core.New(core.Options{Shards: 2, Clock: clock.NewSimulated(t0.Add(24 * time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	defer spa.Close()
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	srv := New(spa, Options{})
	out, merged, err := srv.co.submit(context.Background(), []lifelog.Event{evAt(1, 1)})
	if err != nil || out.Err != nil || merged != 1 {
		t.Fatalf("pre-close submit: %+v %d %v", out, merged, err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, _, err := srv.co.submit(context.Background(), []lifelog.Event{evAt(1, 2)}); err == nil {
		t.Fatal("submit accepted after Close")
	}
}

// TestPipelinedServerEndToEnd: the two-stage dispatcher serves the wire
// contract over HTTP — concurrent durable ingests succeed, outcomes are
// attributed, and /metrics exposes the pipeline gauges.
func TestPipelinedServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ts, spa := testServer(t,
		core.Options{DataDir: dir, Shards: 4, Store: store.Options{SyncWrites: true}},
		Options{MaxDelay: time.Millisecond})
	const users = 8
	for u := uint64(1); u <= users; u++ {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/users", wire.RegisterRequest{UserID: u}, nil); code != http.StatusCreated {
			t.Fatalf("register %d: %d", u, code)
		}
	}
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for u := uint64(1); u <= users; u++ {
		wg.Add(1)
		go func(u uint64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var resp wire.IngestResponse
				req := wire.IngestRequest{Events: []wire.Event{
					{UserID: u, TimeUnixNano: t0.Add(time.Duration(r) * time.Minute).UnixNano(), Type: uint8(lifelog.EventClick), Action: 7},
				}}
				code, _ := doJSON(t, "POST", ts.URL+"/v1/ingest", req, &resp)
				if code != http.StatusOK || resp.Processed != 1 {
					errs <- fmt.Errorf("user %d round %d: code %d resp %+v", u, r, code, resp)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var m wire.Metrics
	if code, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.IngestEvents != users*rounds || m.IngestCommits == 0 {
		t.Fatalf("metrics accounting: %+v", m)
	}
	if m.PipelineDepth != 0 {
		t.Fatalf("pipeline depth %d after quiesce", m.PipelineDepth)
	}
	// Every profile must be durable: reopen and compare.
	for u := uint64(1); u <= users; u++ {
		if _, err := spa.Profile(u); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeRejectsTrailingData: one JSON value per body. A second
// concatenated value used to be silently dropped — the server acknowledged
// a request it had only half-read. Regression across the three mutating
// JSON endpoints.
func TestDecodeRejectsTrailingData(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct{ path, body string }{
		{"/v1/users", `{"user_id":2}{"user_id":3}`},
		{"/v1/ingest", `{"events":[{"user_id":1,"time_unix_nano":1,"type":1,"action":5}]}{"events":[]}`},
		{"/v1/users/1/answer", `{"item_id":1,"option":0}["trailing"]`},
		{"/v1/ingest", `{"events":[]}garbage`},
	}
	for _, c := range cases {
		if code := post(c.path, c.body); code != http.StatusBadRequest {
			t.Errorf("%s with trailing data: %d, want 400", c.path, code)
		}
	}
	// Nothing from the trailing values may have been applied.
	if got := spa.Users(); got != 1 {
		t.Fatalf("trailing register applied: %d users", got)
	}
	// Trailing whitespace is not trailing data.
	if code := post("/v1/users", `{"user_id":4}`+"\n\t "); code != http.StatusCreated {
		t.Fatalf("trailing whitespace rejected: %d", code)
	}
}

// TestRecommendErrorMapping: handleRecommend routes every failure through
// the domain mapping. Cold starts stay 409, but infrastructure failures
// must not masquerade as "retry after ingest" — store.ErrClosed is 503,
// unknown internal errors 500 (previously both answered 409).
func TestRecommendErrorMapping(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	// No interactions ingested yet: a retryable client-side condition.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/users/1/recommendations?n=3", nil, nil); code != http.StatusConflict {
		t.Fatalf("no-interactions: %d, want 409", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/users/9/recommendations?n=3", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown user: %d, want 404", code)
	}
	// The mapping itself: the statuses every endpoint (now including
	// recommend) answers for the facade's error vocabulary.
	for _, c := range []struct {
		err  error
		want int
	}{
		{core.ErrNoInteractions, http.StatusConflict},
		{store.ErrClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("wrapped: %w", store.ErrClosed), http.StatusServiceUnavailable},
		{errors.New("disk exploded"), http.StatusInternalServerError},
		{core.ErrNoProfile, http.StatusNotFound},
		{core.ErrNoModel, http.StatusConflict},
	} {
		if got := domainStatus(c.err); got != c.want {
			t.Errorf("domainStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
