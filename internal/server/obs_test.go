package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// logRecorder captures Logf lines for assertion; the coalescer logs from
// its own goroutines, so it locks.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (r *logRecorder) logf(format string, args ...any) {
	r.mu.Lock()
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *logRecorder) contains(substr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func ingestOne(t *testing.T, url string, user uint64) {
	t.Helper()
	ev := []lifelog.Event{{UserID: user, Time: t0, Type: lifelog.EventClick, Action: 1}}
	if code, _ := doJSON(t, "POST", url+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(ev)}, nil); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
}

func fetchProm(t *testing.T, url string) (map[string]*obs.ParsedFamily, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type %q, want %q", ct, obs.PromContentType)
	}
	fams, err := obs.ParseProm(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("unparseable exposition: %v\n%s", err, raw)
	}
	return fams, string(raw)
}

// TestMetricsPrometheusExposition: the text exposition must parse under
// the strict parser (HELP/TYPE present, le-sorted cumulative buckets,
// +Inf, _count consistency — ParseProm enforces all of it) and carry the
// stage histograms as real _bucket series.
func TestMetricsPrometheusExposition(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	ingestOne(t, ts.URL, 1)

	fams, raw := fetchProm(t, ts.URL)
	for _, want := range []string{
		"spad_requests_total", "spad_ingest_commits_total", "spad_users",
		"spad_stage_duration_seconds", "spad_endpoint_duration_seconds",
	} {
		if fams[want] == nil {
			t.Fatalf("family %s missing from exposition:\n%s", want, raw)
		}
	}
	if typ := fams["spad_stage_duration_seconds"].Type; typ != "histogram" {
		t.Fatalf("stage family type %q", typ)
	}
	if !strings.Contains(raw, `spad_stage_duration_seconds_bucket{stage="commit",le="`) {
		t.Fatalf("no commit-stage _bucket series:\n%s", raw)
	}
	// The dispatcher settles the wave's metrics before it fans the outcome
	// back, so a completed ingest is already counted by this scrape.
	if got := fams["spad_stage_duration_seconds"].Samples[`spad_stage_duration_seconds_count{stage="commit"}`]; got != 1 {
		t.Fatalf("commit stage count %v after one ingest, want 1:\n%s", got, raw)
	}
	// format=prometheus works without the Accept header, and a default
	// request keeps answering JSON (back-compat with spabench and curl).
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("?format=prometheus content type %q", ct)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type %q, want application/json", ct)
	}
}

// TestMetricsJSONPromConsistency: both formats render the same snapshot
// type, so scrape-stable values must agree between consecutive scrapes in
// the two formats.
func TestMetricsJSONPromConsistency(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	ingestOne(t, ts.URL, 1)
	ingestOne(t, ts.URL, 1)

	// Both ingests are fully accounted before their responses: one scrape.
	var m wire.Metrics
	if code, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.IngestCommits != 2 || m.Stages["commit"].Count != 2 || m.IngestEvents != 2 {
		t.Fatalf("after two ingests: commits %d, commit stage count %d, events %d; want 2, 2, 2",
			m.IngestCommits, m.Stages["commit"].Count, m.IngestEvents)
	}
	fams, raw := fetchProm(t, ts.URL)
	get := func(series string) float64 {
		for _, f := range fams {
			if v, ok := f.Samples[series]; ok {
				return v
			}
		}
		t.Fatalf("series %s missing:\n%s", series, raw)
		return 0
	}
	checks := map[string]float64{
		"spad_ingest_commits_total":                         float64(m.IngestCommits),
		"spad_ingest_events_total":                          float64(m.IngestEvents),
		"spad_ingest_requests_total":                        float64(m.IngestRequests),
		"spad_users":                                        float64(m.Users),
		"spad_last_wave_id":                                 float64(m.LastWaveID),
		`spad_stage_duration_seconds_count{stage="commit"}`: float64(m.Stages["commit"].Count),
		`spad_stage_duration_seconds_count{stage="gather"}`: float64(m.Stages["gather"].Count),
	}
	for series, want := range checks {
		if got := get(series); got != want {
			t.Errorf("%s = %v, want %v (JSON)", series, got, want)
		}
	}
	// The bucket counts themselves must agree: JSON per-bucket counts sum
	// to the +Inf cumulative value.
	var total uint64
	for _, c := range m.Stages["commit"].Counts {
		total += c
	}
	if got := get(`spad_stage_duration_seconds_bucket{le="+Inf",stage="commit"}`); got != float64(total) {
		t.Errorf("+Inf bucket %v, want %v", got, total)
	}
}

// TestReadyzFlipsUnderDrain: once drain begins — with a commit still in
// flight — /readyz must answer 503 "draining" while /healthz keeps
// reporting live, and the in-flight request must still complete.
func TestReadyzFlipsUnderDrain(t *testing.T) {
	fops := &stallingFileOps{gate: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(fops.gate) }) }
	defer release()

	ts, spa := testServer(t,
		core.Options{DataDir: t.TempDir(), Shards: 2,
			Store: store.Options{SyncWrites: true, FileOps: fops}},
		Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	srv := spaFromTS(t, ts)

	readyStatus := func() (int, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h wire.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h.Status
	}
	if code, status := readyStatus(); code != http.StatusOK || status != "ok" {
		t.Fatalf("readyz before drain: %d %q", code, status)
	}

	// Park one ingest inside its WAL write, then begin the drain.
	fops.armed.Store(true)
	inflight := make(chan int, 1)
	go func() {
		ev := []lifelog.Event{{UserID: 1, Time: t0, Type: lifelog.EventClick, Action: 1}}
		code, _ := doJSON(t, "POST", ts.URL+"/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(ev)}, nil)
		inflight <- code
	}()
	// Wait until the commit is actually stalled (queue drained into the
	// dispatcher, no response yet).
	time.Sleep(50 * time.Millisecond)
	select {
	case code := <-inflight:
		t.Fatalf("ingest finished before drain began: %d", code)
	default:
	}

	srv.BeginDrain()
	if code, status := readyStatus(); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("readyz under drain: %d %q, want 503 draining", code, status)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz under drain: %d, liveness must not flip", code)
	}

	release()
	select {
	case code := <-inflight:
		if code != http.StatusOK {
			t.Fatalf("in-flight ingest after drain: %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight ingest never completed")
	}
}

// TestStreamConnsGaugeHygiene: connection paths that never reach a live
// session must leave the gauge at zero, and a session that dies at the
// handshake must return it to zero.
func TestStreamConnsGaugeHygiene(t *testing.T) {
	t.Run("hijack_unsupported", func(t *testing.T) {
		spa, err := core.New(core.Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer spa.Close()
		srv := New(spa, Options{})
		defer srv.Close()
		// httptest.ResponseRecorder implements no Hijacker: the upgrade
		// must fail with 500 and the gauge must stay untouched.
		req := httptest.NewRequest("GET", wire.StreamPath, nil)
		req.Header.Set("Upgrade", wire.StreamProtocol)
		req.Header.Set("Connection", "Upgrade")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("non-hijackable upgrade: %d", rec.Code)
		}
		if got := srv.met.streamConns.Load(); got != 0 {
			t.Fatalf("stream_conns = %d after failed hijack, want 0", got)
		}
	})
	t.Run("client_dies_at_handshake", func(t *testing.T) {
		ts, _ := testServer(t, core.Options{Shards: 1}, Options{})
		srv := spaFromTS(t, ts)
		// Upgrade for real, then slam the connection before speaking the
		// protocol; the session must unwind and the gauge return to zero.
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n",
			wire.StreamPath, wire.StreamProtocol)
		conn.Close()
		deadline := time.Now().Add(5 * time.Second)
		for srv.met.streamConns.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("stream_conns = %d after dead handshake, want 0", srv.met.streamConns.Load())
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

// failingCommitPreparer prepares waves whose Commit reports a store-level
// failure for every batch.
type failingCommitPreparer struct{}

func (failingCommitPreparer) PrepareWave(batches [][]lifelog.Event) waveCommit {
	return commitFunc(func() []core.IngestOutcome {
		outs := make([]core.IngestOutcome, len(batches))
		for i := range outs {
			outs[i].Err = errors.New("injected commit failure")
		}
		return outs
	})
}

// TestPipelineDepthZeroAfterCommitFailure: a commit-stage store failure
// must not leak the depth gauge, and the wave's trace must carry the
// error flag.
func TestPipelineDepthZeroAfterCommitFailure(t *testing.T) {
	met := &metrics{}
	c := newCoalescer(failingCommitPreparer{}, met, 64, 4, 0, nil)
	defer c.close()
	out, _, err := c.submit(context.Background(), []lifelog.Event{evAt(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Err == nil {
		t.Fatal("expected the injected failure in the outcome")
	}
	if got := met.pipelineDepth.Load(); got != 0 {
		t.Fatalf("pipeline_depth = %d after failed commit, want 0", got)
	}
	traces := met.obs().waves.Last(1)
	if len(traces) != 1 || !traces[0].Err || traces[0].ID == 0 {
		t.Fatalf("wave trace after failed commit: %+v", traces)
	}
}

// TestDebugWaves: a committed ingest shows up as a wave trace, newest
// first, and a bad n is the caller's 400.
func TestDebugWaves(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	ingestOne(t, ts.URL, 1)
	ingestOne(t, ts.URL, 1)

	// Traces are recorded before the outcome fans back.
	var waves wire.WavesResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/debug/waves?n=1", nil, &waves); code != http.StatusOK {
		t.Fatalf("debug/waves: %d", code)
	}
	if len(waves.Waves) != 1 {
		t.Fatalf("%d wave traces with n=1 after two committed ingests", len(waves.Waves))
	}
	w := waves.Waves[0]
	if w.ID == 0 || w.Requests < 1 || w.Events < 1 || w.Shards < 1 {
		t.Fatalf("wave trace: %+v", w)
	}
	if w.TotalNanos < w.CommitNanos {
		t.Fatalf("total %d < commit %d", w.TotalNanos, w.CommitNanos)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/debug/waves?n=bogus", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad n: %d", code)
	}
}

// TestAccessAndSlowWaveLogs: the opt-in access log emits one line per
// completed request, and a sub-threshold SlowWave setting logs every wave.
func TestAccessAndSlowWaveLogs(t *testing.T) {
	rec := &logRecorder{}
	ts, spa := testServer(t, core.Options{Shards: 2},
		Options{AccessLog: true, SlowWave: time.Nanosecond, Logf: rec.logf})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if !rec.contains("GET /healthz 200") {
		t.Fatalf("no access-log line for /healthz: %v", rec.lines)
	}
	// The slow-wave line is logged before the outcome fans back.
	ingestOne(t, ts.URL, 1)
	if !rec.contains("slow wave") {
		t.Fatalf("no slow-wave line: %v", rec.lines)
	}
}

// TestDefaultServerPipelines: a server built with the zero Options runs the
// two-stage dispatcher — the configuration the benchmark measures — so its
// wave traces carry a timed prepare stage.
func TestDefaultServerPipelines(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	if err := spa.Register(1, nil); err != nil {
		t.Fatal(err)
	}
	ingestOne(t, ts.URL, 1)
	var waves wire.WavesResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/debug/waves?n=1", nil, &waves); code != http.StatusOK {
		t.Fatalf("debug/waves: %d", code)
	}
	if len(waves.Waves) != 1 || waves.Waves[0].PrepareNanos == 0 {
		t.Fatalf("default server's wave has no prepare stage: %+v", waves.Waves)
	}
}
