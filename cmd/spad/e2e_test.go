package main

// The end-to-end test of the built daemon: real processes, real sockets,
// real data directories and a real SIGTERM. Each daemon is this test
// binary re-executed into spad's own main (TestMain), so the test needs
// no separate build step and no curl. Run it with
//
//	go test -count=1 -v ./cmd/spad -e2e
//
// Tier-1 (`go test ./...`) skips it: it boots up to three fsyncing
// daemons at once.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/obs"
	"repro/internal/spaclient"
	"repro/internal/wire"
)

var e2e = flag.Bool("e2e", false, "also run the end-to-end test that boots spad daemons on loopback (~10 s)")

// daemonEnv, set in a child's environment, turns the test binary into spad:
// TestMain hands the remaining arguments to main.
const daemonEnv = "SPAD_E2E_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		os.Args = append([]string{"spad"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Polling bounds: waitFor gives a condition this long before failing.
const (
	waitBound = 20 * time.Second
	waitPoll  = 20 * time.Millisecond
)

// drainBound caps SIGTERM → exit with a stream client attached. It sits
// well under the server's 5 s stream drain deadline, so a client that
// stops acking the drain frame fails it.
const drainBound = 2 * time.Second

// syncBuffer collects a daemon's log output from its pipe goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one spad process.
type daemon struct {
	t    *testing.T
	name string
	addr string // host:port it listens on
	args []string
	cmd  *exec.Cmd
	log  *syncBuffer
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
}

// startDaemon launches spad -addr addr args... and waits until /healthz
// answers. The process is killed at cleanup if the test left it running,
// and its log is printed if the test failed.
func startDaemon(t *testing.T, name, addr string, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, name: name, addr: addr, args: args, log: &syncBuffer{}, done: make(chan struct{})}
	d.cmd = exec.Command(exe, append([]string{"-addr", addr}, args...)...)
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		select {
		case <-d.done:
		default:
			d.cmd.Process.Kill()
			<-d.done
		}
		if t.Failed() {
			t.Logf("%s log:\n%s", d.name, d.log.String())
		}
	})
	waitFor(t, name+" /healthz", func() bool {
		select {
		case <-d.done:
			t.Fatalf("%s exited before serving: %v\n%s", name, d.err, d.log.String())
		default:
		}
		var h wire.Health
		return getJSON(d.url()+"/healthz", &h) == nil && h.Status == "ok"
	})
	return d
}

func (d *daemon) url() string { return "http://" + d.addr }

// restart stops the daemon and starts it again with the same flags.
func (d *daemon) restart() *daemon {
	d.t.Helper()
	d.stop()
	return startDaemon(d.t, d.name, d.addr, d.args...)
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// final "drained and closed" log line. It returns the time from the
// signal to the exit.
func (d *daemon) stop() time.Duration {
	d.t.Helper()
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatalf("%s: SIGTERM: %v", d.name, err)
	}
	select {
	case <-d.done:
	case <-time.After(waitBound):
		d.t.Fatalf("%s did not exit within %v of SIGTERM", d.name, waitBound)
	}
	if d.err != nil {
		d.t.Fatalf("%s exited with %v", d.name, d.err)
	}
	if !strings.Contains(d.log.String(), "spad: drained and closed") {
		d.t.Fatalf("%s exited without a clean drain", d.name)
	}
	return time.Since(start)
}

// freeAddrs reserves n loopback ports by binding them together, then
// releases them for the daemons to take.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// waitFor polls cond until it holds, failing the test after waitBound.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitBound)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", waitBound, what)
		}
		time.Sleep(waitPoll)
	}
}

var httpc = &http.Client{Timeout: 10 * time.Second}

// request sends one HTTP request and returns the status, headers and body.
func request(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// mustGet GETs url and returns the body, requiring 200.
func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	code, _, raw := request(t, "GET", url, "")
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, code, raw)
	}
	return raw
}

// getJSON decodes a 200 answer into out; any other outcome is an error.
func getJSON(url string, out any) error {
	resp, err := httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func metrics(t *testing.T, base string) wire.Metrics {
	t.Helper()
	m, err := spaclient.New(base, spaclient.Options{}).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func replStatus(t *testing.T, base string) wire.ReplicationStatus {
	t.Helper()
	st, err := spaclient.New(base, spaclient.Options{}).ReplicationStatus()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func topology(t *testing.T, base string) wire.Topology {
	t.Helper()
	var topo wire.Topology
	if err := getJSON(base+wire.TopologyPath, &topo); err != nil {
		t.Fatal(err)
	}
	return topo
}

// prometheus scrapes the text exposition.
func prometheus(t *testing.T, base string) string {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := httpc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prometheus /metrics content type %q, want %q", ct, obs.PromContentType)
	}
	return string(raw)
}

// checkMetricsFormats scrapes /metrics in both formats and cross-checks
// them: the Prometheus exposition must parse under the strict parser
// (HELP/TYPE, cumulative le-sorted buckets, +Inf, _count consistency), hold
// at least one _bucket series, and agree with the JSON snapshot on every
// scrape-stable counter. Call it on a quiet daemon.
func checkMetricsFormats(t *testing.T, base string) {
	t.Helper()
	m := metrics(t, base)
	raw := prometheus(t, base)
	fams, err := obs.ParseProm(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("unparseable exposition: %v", err)
	}
	if !strings.Contains(raw, "_bucket{") {
		t.Fatal("exposition has no _bucket series")
	}
	if m.SnapshotEpoch < 1 {
		t.Fatalf("snapshot_epoch %d, want >= 1 on a live core", m.SnapshotEpoch)
	}
	stable := map[string]float64{
		"spad_users":                        float64(m.Users),
		"spad_ingest_commits_total":         float64(m.IngestCommits),
		"spad_ingest_events_total":          float64(m.IngestEvents),
		"spad_ingest_requests_total":        float64(m.IngestRequests),
		"spad_snapshot_epoch":               float64(m.SnapshotEpoch),
		"spad_read_cache_hits_total":        float64(m.ReadCacheHits),
		"spad_knn_rebuilds_total":           float64(m.KNNRebuilds),
		"spad_read_cache_misses_total":      float64(m.ReadCacheMisses),
		"spad_recommend_index_hits_total":   float64(m.RecommendIndexHits),
		"spad_recommend_index_misses_total": float64(m.RecommendIndexMisses),
		"spad_recommend_index_builds_total": float64(m.RecommendIndexBuilds),
		"spad_repl_applied_lsn":             float64(m.ReplAppliedLSN),
		"spad_repl_apply_records_total":     float64(m.ReplApplyRecords),
		// The cluster series render on every daemon (zeros outside cluster
		// mode), so their presence is part of the stable contract.
		"spad_cluster_epoch":         float64(m.ClusterEpoch),
		"spad_cluster_slots_owned":   float64(m.ClusterSlotsOwned),
		"spad_cluster_bounces_total": float64(m.ClusterBounces),
		"spad_slot_moves_total":      float64(m.SlotMoves),
	}
	for name, want := range stable {
		found := false
		for _, f := range fams {
			if got, ok := f.Samples[name]; ok {
				found = true
				if got != want {
					t.Fatalf("%s = %v in exposition but %v in JSON", name, got, want)
				}
			}
		}
		if !found {
			t.Fatalf("series %s missing from exposition", name)
		}
	}
}

// burst is one device upload: users [first, first+n) with perUser
// ascending events each, timestamped from at.
func burst(first uint64, n, perUser int, at time.Time) []lifelog.Event {
	events := make([]lifelog.Event, 0, n*perUser)
	for u := first; u < first+uint64(n); u++ {
		for i := 0; i < perUser; i++ {
			events = append(events, lifelog.Event{
				UserID: u,
				Time:   at.Add(time.Duration(i) * time.Second),
				Type:   lifelog.EventClick,
				Action: uint32((int(u)*perUser + i) % lifelog.ActionUniverse),
			})
		}
	}
	return events
}

// Traffic shape shared by the serve and replication subtests: lanes
// concurrent writers, each owning a disjoint range of usersPerLane users
// and sending it in requests of usersPerReq users × perUser events, so
// every user appears once per pass and cross-lane coalescing never breaks
// per-user order.
const (
	lanes        = 2
	usersPerLane = 32
	usersPerReq  = 8
	perUser      = 4
	population   = lanes * usersPerLane
	reqsPerPass  = population / usersPerReq
	eventsPerReq = usersPerReq * perUser
)

// register creates users 1..population.
func register(t *testing.T, c *spaclient.Client) {
	t.Helper()
	for u := uint64(1); u <= population; u++ {
		if err := c.Register(u, nil); err != nil {
			t.Fatalf("register %d: %v", u, err)
		}
	}
}

// ingestPass sends one pass over the population through ingest from
// lanes goroutines, every event timestamped from at, and requires every
// request to be acknowledged in full.
func ingestPass(t *testing.T, ingest func([]lifelog.Event) (wire.IngestResponse, error), at time.Time) {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, lanes)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for r := 0; r < usersPerLane/usersPerReq; r++ {
				first := uint64(lane*usersPerLane + r*usersPerReq + 1)
				resp, err := ingest(burst(first, usersPerReq, perUser, at))
				if err == nil && resp.Processed != eventsPerReq {
					err = fmt.Errorf("processed %d of %d events", resp.Processed, eventsPerReq)
				}
				if err != nil {
					errCh <- fmt.Errorf("lane %d request %d: %w", lane, r, err)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// streamPass is ingestPass over one persistent stream, closed afterwards.
func streamPass(t *testing.T, c *spaclient.Client, at time.Time) {
	t.Helper()
	si := c.Stream(spaclient.StreamOptions{})
	ingestPass(t, si.Ingest, at)
	if err := si.Close(); err != nil {
		t.Fatalf("closing stream: %v", err)
	}
}

// drainProbe ships one-event frames over one stream until the daemon
// drains it away, counting acknowledgements (the server answers a frame
// only once its wave has committed).
type drainProbe struct {
	acked atomic.Int64
	quit  chan struct{} // closed at cleanup, in case the daemon never drains
	done  chan struct{}
	err   error // the error that ended the stream; valid after done
}

func startDrainProbe(t *testing.T, c *spaclient.Client, user uint64) *drainProbe {
	t.Helper()
	if err := c.Register(user, nil); err != nil {
		t.Fatal(err)
	}
	p := &drainProbe{quit: make(chan struct{}), done: make(chan struct{})}
	si := c.Stream(spaclient.StreamOptions{Timeout: 10 * time.Second})
	go func() {
		defer close(p.done)
		defer si.Close()
		at := clock.Epoch
		for {
			select {
			case <-p.quit:
				return
			default:
			}
			at = at.Add(time.Millisecond)
			resp, err := si.Ingest([]lifelog.Event{{UserID: user, Time: at, Type: lifelog.EventClick, Action: 7}})
			if err == nil && resp.Processed != 1 {
				err = fmt.Errorf("frame processed %d events", resp.Processed)
			}
			if err != nil {
				p.err = err
				return
			}
			p.acked.Add(1)
			// A gentle pace keeps frames in flight across the SIGTERM.
			time.Sleep(5 * time.Millisecond)
		}
	}()
	t.Cleanup(func() {
		close(p.quit)
		<-p.done
	})
	return p
}

func TestE2E(t *testing.T) {
	if !*e2e {
		t.Skip("boots spad daemons on loopback; run with: go test -count=1 -v ./cmd/spad -e2e")
	}
	t.Run("serve", testServe)
	t.Run("replication", testReplication)
	t.Run("cluster", testCluster)
}

// testServe: one durable daemon takes JSON, per-request binary and
// streamed ingest, answers reads while a stream is live, exposes both
// /metrics formats consistently, and drains cleanly on SIGTERM while a
// stream is shipping frames; a restart reloads the population.
func testServe(t *testing.T) {
	dataDir := t.TempDir()
	d := startDaemon(t, "spad", freeAddrs(t, 1)[0], "-data", dataDir)
	c := spaclient.New(d.url(), spaclient.Options{Timeout: 10 * time.Second})

	// One JSON round trip, as a non-Go caller would send it.
	const jsonUser = 2_000_000
	if code, _, raw := request(t, "POST", d.url()+"/v1/users", fmt.Sprintf(`{"user_id":%d}`, jsonUser)); code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("JSON register: %d %s", code, raw)
	}
	code, _, raw := request(t, "POST", d.url()+"/v1/ingest",
		fmt.Sprintf(`{"events":[{"user_id":%d,"time_unix_nano":1700000000000000000,"type":1,"action":7}]}`, jsonUser))
	var ir wire.IngestResponse
	if code != http.StatusOK || json.Unmarshal(raw, &ir) != nil || ir.Processed != 1 {
		t.Fatalf("JSON ingest: %d %s", code, raw)
	}

	// A pass of per-request binary ingest, then a pass over streams.
	register(t, c)
	ingestPass(t, c.Ingest, clock.Epoch)
	if m := metrics(t, d.url()); m.IngestBinary != reqsPerPass {
		t.Fatalf("ingest_binary %d, want the %d binary requests sent", m.IngestBinary, reqsPerPass)
	}
	streamPass(t, c, clock.Epoch.Add(time.Hour))
	m := metrics(t, d.url())
	if m.StreamFrames != reqsPerPass {
		t.Fatalf("stream_frames %d, want the %d frames sent", m.StreamFrames, reqsPerPass)
	}
	waitFor(t, "stream_conns 0 after Close", func() bool { return metrics(t, d.url()).StreamConns == 0 })
	waitFor(t, "pipeline_depth 0", func() bool { return metrics(t, d.url()).PipelineDepth == 0 })
	m = metrics(t, d.url())
	const events = 1 + 2*reqsPerPass*eventsPerReq
	if m.IngestEvents != events {
		t.Fatalf("ingest_events %d, want the %d events sent", m.IngestEvents, events)
	}
	if m.Users != population+1 {
		t.Fatalf("users %d, want the %d registrations", m.Users, population+1)
	}
	if m.RequestErrors != 0 {
		t.Fatalf("request_errors %d", m.RequestErrors)
	}
	// Readiness is distinct from liveness and still green before drain.
	var ready wire.Health
	if err := getJSON(d.url()+"/readyz", &ready); err != nil || ready.Status != "ok" {
		t.Fatalf("readyz: %+v %v", ready, err)
	}
	checkMetricsFormats(t, d.url())

	// Reads under concurrent streamed ingest: the drain probe starts now
	// and keeps committing waves while the reads run.
	probe := startDrainProbe(t, c, 3_000_000)
	waitFor(t, "the drain probe's first ack", func() bool { return probe.acked.Load() >= 1 })
	// A 200 with the recommendations array proves the read served; an
	// empty list is legal.
	var recs map[string]json.RawMessage
	if err := json.Unmarshal(mustGet(t, d.url()+"/v1/users/1/recommendations?n=3"), &recs); err != nil {
		t.Fatal(err)
	}
	if _, ok := recs["recommendations"]; !ok {
		t.Fatalf("recommendations answer has no recommendations: %v", recs)
	}
	// No propensity model is trained over the wire: select-top answers a
	// clean 409, a served read, never a 5xx.
	code, _, raw = request(t, "GET", d.url()+"/v1/select-top?k=5", "")
	var apiErr struct {
		Error string `json:"error"`
	}
	if code != http.StatusConflict || json.Unmarshal(raw, &apiErr) != nil || apiErr.Error == "" {
		t.Fatalf("select-top: %d %s, want 409 with an error", code, raw)
	}
	// User 1 has a row, so its ranking ranked every shard, by index or by
	// scan.
	if m := metrics(t, d.url()); m.SnapshotEpoch < 1 || m.ReadCacheHits+m.ReadCacheMisses < 1 ||
		m.RecommendIndexHits+m.RecommendIndexMisses < 1 {
		t.Fatalf("read path unaccounted: snapshot_epoch %d, cache %d+%d, shard rankings %d+%d",
			m.SnapshotEpoch, m.ReadCacheHits, m.ReadCacheMisses, m.RecommendIndexHits, m.RecommendIndexMisses)
	}

	// SIGTERM mid-stream, once the stream has two acks: the daemon drains
	// and exits cleanly, and the stream ends in an error rather than a
	// hang.
	waitFor(t, "two acks on the drain probe", func() bool { return probe.acked.Load() >= 2 })
	if took := d.stop(); took > drainBound {
		t.Fatalf("SIGTERM → exit took %v with a stream client attached, want ≤ %v", took, drainBound)
	}
	<-probe.done
	if probe.err == nil {
		t.Fatal("the drain probe never saw the daemon drain")
	}
	t.Logf("drain probe: %d frames acknowledged, then %v", probe.acked.Load(), probe.err)

	// The restart reloads every registration from -data.
	d = startDaemon(t, "spad (restarted)", d.addr, "-data", dataDir)
	var h wire.Health
	if err := getJSON(d.url()+"/healthz", &h); err != nil || h.Users != population+2 {
		t.Fatalf("restart: %+v %v, want %d users", h, err, population+2)
	}
	d.stop()
}

// testReplication: a durable leader with a `-follow` follower. The
// follower catches up over the live stream, answers reads byte-identically
// to the leader, bounces writes to it, exposes the replication series, and
// keeps serving reads after the leader is gone.
func testReplication(t *testing.T) {
	addrs := freeAddrs(t, 2)
	leader := startDaemon(t, "leader", addrs[0], "-data", t.TempDir())
	lc := spaclient.New(leader.url(), spaclient.Options{Timeout: 10 * time.Second})
	register(t, lc)
	ingestPass(t, lc.Ingest, clock.Epoch)
	if st := replStatus(t, leader.url()); st.Role != "leader" {
		t.Fatalf("leader role %q", st.Role)
	}

	follower := startDaemon(t, "follower", addrs[1], "-data", t.TempDir(), "-follow", leader.addr)
	// More leader commits over a stream while the follower tails the log.
	streamPass(t, lc, clock.Epoch.Add(time.Hour))
	leaderLSN := replStatus(t, leader.url()).AppliedLSN
	waitFor(t, "the follower to apply the leader's LSN", func() bool {
		return replStatus(t, follower.url()).AppliedLSN >= leaderLSN
	})
	waitFor(t, "the follower's lag to settle", func() bool {
		return replStatus(t, follower.url()).LagWaves == 0
	})
	if st := replStatus(t, follower.url()); st.Role != "follower" || st.State != "streaming" || st.AppliedLSN < leaderLSN {
		t.Fatalf("follower status %+v, want a streaming follower at LSN >= %d", st, leaderLSN)
	}

	// Replicated reads answer byte-identically to the leader's.
	const recPath = "/v1/users/1/recommendations?n=3"
	want := mustGet(t, leader.url()+recPath)
	if got := mustGet(t, follower.url()+recPath); !bytes.Equal(got, want) {
		t.Fatalf("follower answered %s, leader %s", got, want)
	}
	// Writes bounce to the leader with 421 + its address.
	code, hdr, _ := request(t, "POST", follower.url()+"/v1/ingest", `{"events":[]}`)
	if code != http.StatusMisdirectedRequest || hdr.Get("X-SPA-Leader") != leader.addr {
		t.Fatalf("follower write: %d X-SPA-Leader %q, want 421 naming %s", code, hdr.Get("X-SPA-Leader"), leader.addr)
	}
	// Both /metrics formats cross-check, with the replication series set
	// and the apply stage observed.
	checkMetricsFormats(t, follower.url())
	m := metrics(t, follower.url())
	if m.ReplRole != "follower" || m.ReplAppliedLSN < 1 {
		t.Fatalf("follower metrics: repl_role %q repl_applied_lsn %d", m.ReplRole, m.ReplAppliedLSN)
	}
	// Every apply run holds at least one record.
	if runs := m.Stages["repl_apply"].Count; runs < 1 || m.ReplApplyRecords < runs {
		t.Fatalf("follower metrics: %d records over %d repl_apply runs", m.ReplApplyRecords, runs)
	}
	t.Logf("follower: %d records over %d apply runs", m.ReplApplyRecords, m.Stages["repl_apply"].Count)
	if !strings.Contains(prometheus(t, follower.url()), `spad_stage_duration_seconds_count{stage="repl_apply"}`) {
		t.Fatal("follower exposition has no repl_apply stage")
	}

	// With the leader gone the follower keeps serving the same answers.
	leader.stop()
	if got := mustGet(t, follower.url()+recPath); !bytes.Equal(got, want) {
		t.Fatalf("orphaned follower answered %s, want %s", got, want)
	}
	if st := replStatus(t, follower.url()); st.Role != "follower" {
		t.Fatalf("orphaned follower role %q", st.Role)
	}
	follower.stop()
}

// testCluster: three `-node-id` nodes. The epoch-1 map covers every slot
// with a share per node, writes find their owner through the 421 bounce,
// a killed node rejoins with the same slots and profiles, and a handoff
// moves a node's slots with zero acknowledged-write loss.
func testCluster(t *testing.T) {
	addrs := freeAddrs(t, 3)
	ids := []string{"a", "b", "c"}
	var peers []string
	for i, id := range ids {
		peers = append(peers, id+"="+addrs[i])
	}
	nodes := make([]*daemon, len(ids))
	for i, id := range ids {
		nodes[i] = startDaemon(t, "node "+id, addrs[i],
			"-data", t.TempDir(), "-node-id", id, "-peers", strings.Join(peers, ","))
	}
	a, b, c := nodes[0], nodes[1], nodes[2]

	topo := topology(t, a.url())
	if topo.Epoch != 1 || len(topo.Slots) != keyspace.NumSlots || len(topo.Nodes) != 3 {
		t.Fatalf("epoch-1 topology: epoch %d, %d slots, %d nodes", topo.Epoch, len(topo.Slots), len(topo.Nodes))
	}

	// postOwned is one write hop like a routed client's: POST to node a,
	// and on a 421 follow X-SPA-Owner exactly once.
	postOwned := func(path, body string) {
		t.Helper()
		code, hdr, raw := request(t, "POST", a.url()+path, body)
		if code == http.StatusMisdirectedRequest {
			code, _, raw = request(t, "POST", "http://"+hdr.Get(wire.OwnerHeader)+path, body)
		}
		if code/100 != 2 {
			t.Fatalf("POST %s %s: %d %s", path, body, code, raw)
		}
	}
	event := func(user uint64, at int64, typ, action int) string {
		return fmt.Sprintf(`{"events":[{"user_id":%d,"time_unix_nano":%d,"type":%d,"action":%d}]}`, user, at, typ, action)
	}
	const users = 12
	for id := uint64(1); id <= users; id++ {
		postOwned("/v1/users", fmt.Sprintf(`{"user_id":%d}`, id))
		postOwned("/v1/ingest", event(id, 1700000000000000000, 1, int(id)))
	}
	// The slot shares cover the keyspace, nobody owns nothing, and node a's
	// bounce counter proves the 421 path fired.
	total := 0
	for _, n := range nodes {
		owned := metrics(t, n.url()).ClusterSlotsOwned
		if owned < 1 {
			t.Fatalf("%s owns no slots", n.name)
		}
		total += int(owned)
	}
	if total != keyspace.NumSlots {
		t.Fatalf("nodes own %d slots in total, want %d", total, keyspace.NumSlots)
	}
	if m := metrics(t, a.url()); m.ClusterBounces < 1 {
		t.Fatal("node a never bounced a write")
	}
	checkMetricsFormats(t, c.url())

	// A user node c owns: reads are owner-enforced, so only the owner
	// answers 200.
	var cUser uint64
	var preKill []byte
	for id := uint64(1); id <= users && cUser == 0; id++ {
		if code, _, raw := request(t, "GET", fmt.Sprintf("%s/v1/users/%d/sensibilities", c.url(), id), ""); code == http.StatusOK {
			cUser, preKill = id, raw
		}
	}
	if cUser == 0 {
		t.Fatalf("node c owns none of users 1..%d", users)
	}
	sensPath := fmt.Sprintf("/v1/users/%d/sensibilities", cUser)

	// Kill and rejoin on the same data dir: same slots, same epoch, and a
	// byte-identical profile.
	c = c.restart()
	if topo := topology(t, c.url()); topo.NodeID != "c" || topo.Epoch != 1 {
		t.Fatalf("rejoined c: node_id %q epoch %d", topo.NodeID, topo.Epoch)
	}
	if got := mustGet(t, c.url()+sensPath); !bytes.Equal(got, preKill) {
		t.Fatalf("rejoined c serves %s, before the kill %s", got, preKill)
	}

	// One more acknowledged write on c's side, then b takes all of c's
	// slots; the moved profile must include that write.
	postOwned("/v1/ingest", event(cUser, 1700000001000000000, 2, 3))
	preHandoff := mustGet(t, c.url()+sensPath)
	code, _, raw := request(t, "POST", b.url()+wire.HandoffPath, `{"from_node":"c"}`)
	var handoff wire.HandoffResponse
	if code != http.StatusOK || json.Unmarshal(raw, &handoff) != nil || handoff.Moved < 1 || handoff.Epoch < 2 {
		t.Fatalf("handoff: %d %s", code, raw)
	}
	// Gossip converges every node on the post-flip epoch.
	for _, n := range []*daemon{a, b, c} {
		waitFor(t, n.name+" to adopt the handoff epoch", func() bool {
			var topo wire.Topology
			return getJSON(n.url()+wire.TopologyPath, &topo) == nil && topo.Epoch >= handoff.Epoch
		})
	}
	// Zero acknowledged-write loss: the new owner serves the moved profile
	// byte-identically, and the old owner bounces naming it.
	if got := mustGet(t, b.url()+sensPath); !bytes.Equal(got, preHandoff) {
		t.Fatalf("new owner serves %s, the old one served %s", got, preHandoff)
	}
	code, hdr, _ := request(t, "GET", c.url()+sensPath, "")
	if code != http.StatusMisdirectedRequest || hdr.Get(wire.OwnerHeader) != b.addr {
		t.Fatalf("old owner: %d %s %q, want 421 naming %s", code, wire.OwnerHeader, hdr.Get(wire.OwnerHeader), b.addr)
	}
	if m := metrics(t, c.url()); m.ClusterSlotsOwned != 0 {
		t.Fatalf("c still owns %d slots", m.ClusterSlotsOwned)
	}
	if m := metrics(t, b.url()); m.SlotMoves < 1 {
		t.Fatal("b counted no slot moves")
	}
	for _, n := range []*daemon{a, b, c} {
		n.stop()
	}
}
