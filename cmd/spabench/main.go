// Command spabench regenerates every evaluation artifact of the paper and
// prints a paper-vs-measured table — the reproduction's experiment record.
// Absolute numbers are not expected to match (the substrate
// is a synthetic simulator, not emagister.com's production traffic); the
// shape — who wins, by roughly what factor, where the operating point falls
// — is the reproduction target.
//
// Usage: spabench [-users N] [-seed S] [-skip-ablations] [-skip-scale]
//
//	[-json] [-clients K] [-requests N] [-loadgen URL] [-no-register]
//	[-stream] [-stream-smoke URL] [-check-metrics URL]
//	[-torture [-torture-budget D] [-torture-schedules N]]
//
// After the paper sections comes one scale section, [S9]: the zipf +
// diurnal scenario replay against a three-node slot-partitioned cluster
// with a live handoff, beside the same replay on one node. Single-node and
// leader+follower serving are measured by bench/ (`go run ./bench`), the
// end-to-end serving benchmark with a checked-in contract.
//
// -json switches the output to machine-readable results: one JSON object
// per section on stdout (the human table is suppressed), so a bench
// trajectory can be captured as BENCH_*.json instead of scraping text.
//
// -loadgen URL skips the paper sections entirely and drives an already
// running spad (cmd/spad) over its wire API with -clients concurrent
// clients, reporting throughput and latency percentiles; the CI smokes use
// it to put binary-framed and streamed traffic through a built daemon.
// -no-register reuses a previous run's population instead of registering
// (a re-run against the same data dir would otherwise count 409s as
// errors). -stream switches the loadgen onto the persistent binary stream
// transport.
//
// -stream-smoke URL is the CI drain probe: it ships frames over one
// stream until the daemon drains (SIGTERM), then reports how many were
// acknowledged — every acknowledged frame was committed before its answer
// was written.
//
// -torture runs the storage torture sweep (internal/torture): randomized
// fault schedules against the durable stack under -torture-budget. A
// failure prints the schedule seed; `spabench -torture -seed N` replays
// that one schedule deterministically.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/messaging"
	"repro/internal/scalebench"
	"repro/internal/server"
	"repro/internal/spaclient"
	"repro/internal/store"
	"repro/internal/torture"
	"repro/internal/wire"
)

func main() {
	users := flag.Int("users", 5000, "population per campaign (paper: 1,340,432)")
	seed := flag.Uint64("seed", 7, "experiment seed")
	skipAblations := flag.Bool("skip-ablations", false, "skip A1-A3")
	skipScale := flag.Bool("skip-scale", false, "skip the S9 cluster section")
	jsonOut := flag.Bool("json", false, "emit one JSON object per section instead of the table")
	clients := flag.Int("clients", scalebench.Workers, "concurrent clients for S9 and -loadgen")
	requests := flag.Int("requests", 2048, "total ingest requests for -loadgen")
	loadgen := flag.String("loadgen", "", "drive a running spad at this base URL and exit (e.g. http://127.0.0.1:8372)")
	stream := flag.Bool("stream", false, "with -loadgen: speak the persistent binary stream instead of per-request HTTP")
	noRegister := flag.Bool("no-register", false, "with -loadgen: skip user registration (reuse a previous run's population)")
	streamSmoke := flag.String("stream-smoke", "", "streamed-ingest drain smoke against a running spad at this base URL: ship frames until the daemon drains, then report")
	tortureMode := flag.Bool("torture", false, "run the storage torture sweep and exit; with an explicit -seed N, replay that one fault schedule")
	tortureBudget := flag.Duration("torture-budget", 30*time.Second, "with -torture: wall-clock budget for the sweep")
	tortureSchedules := flag.Int("torture-schedules", 0, "with -torture: max fault schedules (0 = budget-bound)")
	checkMetrics := flag.String("check-metrics", "", "scrape a running spad's /metrics in both formats, cross-check them, and exit (CI smoke)")
	flag.Parse()

	em := &emitter{w: os.Stdout}
	if *jsonOut {
		em.w = io.Discard
		em.enc = json.NewEncoder(os.Stdout)
	}

	var err error
	if *checkMetrics != "" {
		if err := scalebench.CheckMetricsFormats(*checkMetrics); err != nil {
			fmt.Fprintf(os.Stderr, "spabench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("metrics formats ok")
		return
	}
	if *tortureMode {
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		err = runTorture(*seed, seedSet, *tortureBudget, *tortureSchedules)
	} else if *streamSmoke != "" {
		err = runStreamSmoke(*streamSmoke)
	} else if *loadgen != "" {
		err = runLoadgen(em, *loadgen, *clients, *requests, *stream, !*noRegister)
	} else {
		err = run(em, *users, *seed, !*skipAblations, !*skipScale, *clients)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spabench: %v\n", err)
		os.Exit(1)
	}
}

// emitter fans each section to the human table and/or the JSON stream.
type emitter struct {
	w   io.Writer     // human output; io.Discard in -json mode
	enc *json.Encoder // non-nil in -json mode
}

func (e *emitter) printf(format string, args ...any) {
	fmt.Fprintf(e.w, format, args...)
}

// emit writes one machine-readable section record.
func (e *emitter) emit(section string, v map[string]any) {
	if e.enc == nil {
		return
	}
	v["section"] = section
	e.enc.Encode(v)
}

func run(em *emitter, users int, seed uint64, ablations, scale bool, clients int) error {
	start := time.Now()
	em.printf("SPA reproduction harness — %d users, seed %d\n", users, seed)
	em.printf("====================================================================\n")

	// ---- T1: Table 1 ----
	rows := emotion.Table1()
	attrs := 0
	for _, r := range rows {
		attrs += len(r.Attributes)
	}
	em.printf("\n[T1] Four-Branch Model of Emotional Intelligence\n")
	em.printf("  paper   : 4 branches (MSCEIT V2.0), 10 deployed emotional attributes\n")
	em.printf("  measured: %d branches, %d attributes mapped    %s\n",
		len(rows), attrs, okIf(len(rows) == 4 && attrs == emotion.NumAttributes))
	em.emit("T1", map[string]any{
		"branches": len(rows), "attributes": attrs,
		"ok": len(rows) == 4 && attrs == emotion.NumAttributes,
	})

	// ---- F5: Figure 5 ----
	db := messaging.NewDB()
	samples, err := messaging.Fig5(db, "Course in Digital Marketing")
	if err != nil {
		return err
	}
	em.printf("\n[F5] Individualized message assignment\n")
	wantCases := []messaging.Case{messaging.CaseSingle, messaging.CaseMultiPriority, messaging.CaseMultiSensibility}
	allOK := len(samples) == 3
	cases := make([]string, 0, len(samples))
	for i, s := range samples {
		ok := s.Case == wantCases[i]
		allOK = allOK && ok
		cases = append(cases, s.Case.String())
		em.printf("  %-44s case %-6s %s\n", s.Label, s.Case, okIf(ok))
	}
	f5OK := allOK &&
		samples[1].Attributes[0] == emotion.Lively && samples[2].Attributes[0] == emotion.Hopeful
	em.printf("  paper   : cases 3.b / 3.c.i (lively>stimulated>shy>frightened) / 3.c.ii (hopeful)\n")
	em.printf("  measured: %s\n", okIf(f5OK))
	em.emit("F5", map[string]any{"cases": cases, "ok": f5OK})

	// ---- F6: Figure 6 ----
	cfg := campaign.DefaultExperiment(users, seed)
	fig, ex, err := campaign.RunExperiment(cfg)
	if err != nil {
		return err
	}
	em.printf("\n[F6a] Cumulative redemption curve (pooled, ten campaigns)\n")
	em.printf("  paper   : 40%% of commercial action -> >76%% of useful impacts\n")
	em.printf("  measured: 40%% of commercial action -> %.1f%% of useful impacts   %s\n",
		fig.CapturedAt40*100, okIf(fig.CapturedAt40 > 0.65))
	em.printf("  curve   : contacted%% -> captured%%\n")
	for _, p := range fig.Gains {
		if int(p.ContactedFrac*100+0.5)%10 == 0 {
			em.printf("            %3.0f%% -> %5.1f%%\n", p.ContactedFrac*100, p.CapturedFrac*100)
		}
	}
	em.emit("F6a", map[string]any{
		"captured_at_40": fig.CapturedAt40, "ok": fig.CapturedAt40 > 0.65,
	})

	em.printf("\n[F6b] Predictive scores of the ten campaigns\n")
	em.printf("  paper   : average performance 21%% (282,938 useful impacts of 1,340,432 targets); +90%% redemption\n")
	em.printf("  measured: average predictive score %.1f%%; %d useful impacts of %d contacted; %+.0f%% redemption   %s\n",
		fig.AvgPredictiveScore*100, fig.TotalUsefulImpacts, fig.TotalContacted,
		fig.RedemptionImprovement*100,
		okIf(fig.AvgPredictiveScore > 0.15 && fig.RedemptionImprovement > 0.5))
	for _, r := range fig.PerCampaign {
		em.printf("    c%02d %-10s %5.1f%%  (%d impacts)\n",
			r.Campaign.ID, r.Campaign.Kind, r.PredictiveScore*100, r.UsefulImpacts)
	}
	em.printf("  profiles: %d weblog events, %d EIT answers, %d training rows, pooled AUC %.3f\n",
		ex.WebLogEvents, ex.EITAnswers, ex.TrainSize, fig.AUC)
	em.emit("F6b", map[string]any{
		"avg_predictive_score":   fig.AvgPredictiveScore,
		"useful_impacts":         fig.TotalUsefulImpacts,
		"contacted":              fig.TotalContacted,
		"redemption_improvement": fig.RedemptionImprovement,
		"auc":                    fig.AUC,
		"ok":                     fig.AvgPredictiveScore > 0.15 && fig.RedemptionImprovement > 0.5,
	})

	// §5.1 data description: the attribute inventory with measured sparsity.
	inv, err := ex.Pipeline.AttributeInventory()
	if err != nil {
		return err
	}
	kinds := map[string]int{}
	var emoDensity float64
	emoCols := 0
	for _, r := range inv {
		kinds[r.Kind]++
		if r.Kind == "emotional" {
			emoDensity += r.Density
			emoCols++
		}
	}
	em.printf("\n[D1] Attribute inventory (paper §5.1: 75 objective, subjective and emotional attributes)\n")
	em.printf("  measured: %d attributes (%d objective, %d subjective, %d emotional); mean emotional coverage %.0f%% after warmup+campaigns\n",
		len(inv), kinds["objective"], kinds["subjective"], kinds["emotional"], 100*emoDensity/float64(emoCols))
	em.emit("D1", map[string]any{
		"attributes": len(inv), "objective": kinds["objective"],
		"subjective": kinds["subjective"], "emotional": kinds["emotional"],
		"emotional_coverage": emoDensity / float64(emoCols),
	})

	// Baseline contrast (the "previous process").
	cfgB := cfg
	cfgB.Features = campaign.ObjectiveOnly()
	cfgB.Learner = campaign.LearnerLogistic
	figB, _, err := campaign.RunExperiment(cfgB)
	if err != nil {
		return err
	}
	em.printf("\n[F6-baseline] Objective-only logistic (pre-SPA process)\n")
	em.printf("  measured: capture@40 %.1f%% vs SPA %.1f%%; score %.1f%% vs SPA %.1f%%   %s\n",
		figB.CapturedAt40*100, fig.CapturedAt40*100,
		figB.AvgPredictiveScore*100, fig.AvgPredictiveScore*100,
		okIf(fig.CapturedAt40 > figB.CapturedAt40+0.1))
	em.emit("F6-baseline", map[string]any{
		"baseline_captured_at_40": figB.CapturedAt40,
		"spa_captured_at_40":      fig.CapturedAt40,
		"ok":                      fig.CapturedAt40 > figB.CapturedAt40+0.1,
	})

	if ablations {
		if err := runAblations(em, cfg); err != nil {
			return err
		}
	}
	if scale {
		if err := runScaleServeCluster(em, seed, clients); err != nil {
			return err
		}
	}
	em.printf("\ndone in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// serveStack boots one durable spad stack on loopback — 32 shards, fsync
// on, otherwise `spad -data D`'s defaults — and hands the base URL to fn,
// tearing everything down afterwards.
func serveStack(fn func(baseURL string) error) error {
	dir, err := os.MkdirTemp("", "spabench-serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spa, err := core.New(core.Options{
		DataDir: dir,
		Store:   store.Options{SyncWrites: true},
		Shards:  32,
		Clock:   clock.NewSimulated(clock.Epoch),
	})
	if err != nil {
		return err
	}
	srv := server.New(spa, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		spa.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer func() {
		httpSrv.Close()
		srv.Close()
		spa.Close()
	}()
	return fn("http://" + ln.Addr().String())
}

// runScaleServeCluster is the cluster section [S9]: the zipf + diurnal
// scenario replay (scalebench.RunScenario: mixed-endpoint sessions over a
// skewed population) against a 3-node slot-partitioned cluster (DESIGN.md
// §10) with topology-routed clients, versus the same replay against one
// node of the identical stack configuration. Three properties are under
// test: the slot map spreads both slots and users across the nodes
// (within 2x of the ideal share), aggregate ingest scales with the node
// count when the host has the cores to back it, and a live slot handoff
// under write load loses no acknowledged write — checked by mirroring
// every acknowledged batch into a standalone shadow node and comparing the
// moved users' profiles byte-for-byte afterwards.
func runScaleServeCluster(em *emitter, seed uint64, clients int) error {
	const (
		sessions = 256
		numNodes = 3
	)
	em.printf("\n[S9] Cluster: %d slot-partitioned nodes vs single node (zipf scenario, %d sessions, %d clients, fsync on, seed %d)\n",
		numNodes, sessions, clients, seed)

	// Single-node baseline: the same scenario on the same stack shape.
	var single scalebench.ScenarioResult
	err := serveStack(func(baseURL string) error {
		var err error
		single, err = scalebench.RunScenario(scalebench.ScenarioConfig{
			BaseURL: baseURL, Seed: seed, Clients: clients,
			Sessions: sessions, Register: true,
		})
		return err
	})
	if err != nil {
		return err
	}

	var clusterRes scalebench.ScenarioResult
	slotsOwned := make([]int, numNodes)
	usersOwned := make([]int, numNodes)
	var handoff wire.HandoffResponse
	lost := -1
	moved := 0
	err = clusterStack(numNodes, func(ids, urls []string) error {
		var err error
		clusterRes, err = scalebench.RunScenario(scalebench.ScenarioConfig{
			Endpoints: urls, Cluster: true, Seed: seed, Clients: clients,
			Sessions: sessions, Register: true,
		})
		if err != nil {
			return err
		}
		for i, u := range urls {
			m, err := scalebench.FetchMetrics(u)
			if err != nil {
				return err
			}
			slotsOwned[i] = int(m.ClusterSlotsOwned)
			usersOwned[i] = int(m.Users)
		}
		handoff, lost, moved, err = clusterHandoffCheck(ids, urls)
		return err
	})
	if err != nil {
		return err
	}

	scaling := 0.0
	if single.WriteEventsPerSec > 0 {
		scaling = clusterRes.WriteEventsPerSec / single.WriteEventsPerSec
	}
	// Balance: no node may own more than twice its ideal slot share, and
	// every node must own something (the deterministic epoch-1 map is
	// round-robin, so this is really a check that routing respected it).
	ideal := keyspace.NumSlots / numNodes
	balanced := true
	for _, n := range slotsOwned {
		if n == 0 || n > 2*ideal {
			balanced = false
		}
	}
	// The scaling target needs real cores behind the nodes: with ≥4 CPUs three nodes commit on independent fsync streams and
	// aggregate ingest must reach ≥2x the single node. On a smaller host
	// the nodes time-share one CPU and the criterion degrades to "routing
	// and ownership enforcement must not crater throughput" (≥0.5x).
	scalingFloor := 2.0
	if runtime.NumCPU() < 4 {
		scalingFloor = 0.5
	}
	ok := single.Errors == 0 && clusterRes.Errors == 0 && balanced &&
		scaling >= scalingFloor && moved > 0 && handoff.Epoch > 1 && lost == 0
	em.printf("  single node    : %8.0f events/s   write p99 %6s  read p99 %6s  (%d errors)\n",
		single.WriteEventsPerSec, single.WriteP99.Round(time.Microsecond),
		single.ReadP99.Round(time.Microsecond), single.Errors)
	em.printf("  %d-node cluster : %8.0f events/s   write p99 %6s  read p99 %6s  (%d errors)\n",
		numNodes, clusterRes.WriteEventsPerSec, clusterRes.WriteP99.Round(time.Microsecond),
		clusterRes.ReadP99.Round(time.Microsecond), clusterRes.Errors)
	em.printf("  balance        : slots %v (ideal %d, bound %d)   users %v\n",
		slotsOwned, ideal, 2*ideal, usersOwned)
	em.printf("  ingest scaling : %.2fx (target %.1fx on %d cpus)\n",
		scaling, scalingFloor, runtime.NumCPU())
	em.printf("  live handoff   : %d slots moved, epoch %d, %d mismatched profiles of the moved users   %s\n",
		moved, handoff.Epoch, lost, okIf(ok))
	em.emit("S9", map[string]any{
		"single":        single,
		"cluster":       clusterRes,
		"write_scaling": scaling,
		"scaling_floor": scalingFloor,
		"cpus":          runtime.NumCPU(),
		"slots_owned":   slotsOwned,
		"users_owned":   usersOwned,
		"handoff_moved": moved,
		"handoff_epoch": handoff.Epoch,
		"lost_profiles": lost,
		"ok":            ok,
	})
	return nil
}

// clusterStack boots an n-node durable spad cluster on loopback — every
// node the serveStack shape (coalescer, 32 shards, fsync on)
// plus the cluster layer — and hands fn the node IDs and base URLs in the
// same order. Listeners are bound before any node starts so the peer map
// can name every advertised address up front.
func clusterStack(n int, fn func(ids, urls []string) error) error {
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	ids := make([]string, n)
	urls := make([]string, n)
	peers := make(map[string]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ids[i] = string(rune('a' + i))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		cleanup = append(cleanup, func() { ln.Close() })
		listeners[i] = ln
		peers[ids[i]] = ln.Addr().String()
		urls[i] = "http://" + peers[ids[i]]
	}
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", "spabench-cluster-*")
		if err != nil {
			return err
		}
		cleanup = append(cleanup, func() { os.RemoveAll(dir) })
		spa, err := core.New(core.Options{
			DataDir: dir,
			Store:   store.Options{SyncWrites: true},
			Shards:  32,
			Clock:   clock.NewSimulated(clock.Epoch),
		})
		if err != nil {
			return err
		}
		srv := server.New(spa, server.Options{
			ClusterNodeID: ids[i],
			ClusterAddr:   peers[ids[i]],
			ClusterPeers:  peers,
			ClusterDir:    dir,
		})
		httpSrv := &http.Server{Handler: srv}
		go httpSrv.Serve(listeners[i])
		cleanup = append(cleanup, func() {
			httpSrv.Close()
			srv.Close()
			spa.Close()
		})
	}
	return fn(ids, urls)
}

// clusterHandoffCheck is [S9]'s no-acked-write-loss probe: a writer keeps
// ingesting to users owned by the last node while the second node pulls
// every slot away from it (wire.HandoffPath with FromNode), and every
// acknowledged batch is mirrored into a standalone in-memory shadow spad.
// The cores run frozen simulated clocks and see identical event streams,
// so after the handoff the moved users' sensibility documents on the new
// owner must be byte-identical to the shadow's — any drift means a write
// was acknowledged by the cluster and then lost in the move. Returns the
// handoff response, the mismatch count, and how many slots moved.
func clusterHandoffCheck(ids, urls []string) (wire.HandoffResponse, int, int, error) {
	var handoff wire.HandoffResponse
	fail := func(err error) (wire.HandoffResponse, int, int, error) {
		return handoff, -1, 0, err
	}

	var topo wire.Topology
	if err := getJSON(urls[0]+wire.TopologyPath, &topo); err != nil {
		return fail(err)
	}
	if err := topo.Validate(); err != nil {
		return fail(err)
	}

	// Shadow: a plain single-node in-memory stack, no cluster layer.
	sspa, err := core.New(core.Options{Shards: 4, Clock: clock.NewSimulated(clock.Epoch)})
	if err != nil {
		return fail(err)
	}
	ssrv := server.New(sspa, server.Options{})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ssrv.Close()
		sspa.Close()
		return fail(err)
	}
	shttp := &http.Server{Handler: ssrv}
	go shttp.Serve(sln)
	shadowURL := "http://" + sln.Addr().String()
	defer func() {
		shttp.Close()
		ssrv.Close()
		sspa.Close()
	}()

	// Fresh users (far above the scenario population) whose slots the
	// source node owns right now, per the actual published map.
	src, target := ids[len(ids)-1], urls[1]
	var users []uint64
	for id := uint64(1_000_000); len(users) < 12 && id < 1_010_000; id++ {
		if topo.Slots[keyspace.Partition(id)] == src {
			users = append(users, id)
		}
	}
	if len(users) < 12 {
		return fail(fmt.Errorf("no users partition to node %s", src))
	}

	rc := spaclient.New(urls[0], spaclient.Options{Cluster: true})
	sc := spaclient.New(shadowURL, spaclient.Options{})
	for _, u := range users {
		if err := rc.Register(u, nil); err != nil {
			return fail(err)
		}
		if err := sc.Register(u, nil); err != nil {
			return fail(err)
		}
	}

	// ingest retries through the handoff fence (503 + Retry-After) but
	// nothing else; the 421 bounce after the flip is the routed client's
	// own job. Every batch is one owner group, so a fenced batch was
	// rejected whole and the retry cannot double-apply.
	ingest := func(batch []lifelog.Event) error {
		for attempt := 0; ; attempt++ {
			_, err := rc.Ingest(batch)
			var apiErr *spaclient.APIError
			if err != nil && errors.As(err, &apiErr) &&
				apiErr.Status == http.StatusServiceUnavailable && attempt < 500 {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			return err
		}
	}

	const rounds = 60
	handoffDone := make(chan error, 1)
	cursor := clock.Epoch
	for r := 0; r < rounds; r++ {
		if r == rounds/3 {
			go func() {
				handoffDone <- postJSON(target+wire.HandoffPath,
					wire.HandoffRequest{FromNode: src}, &handoff)
			}()
		}
		batch := make([]lifelog.Event, 0, len(users))
		for _, u := range users {
			cursor = cursor.Add(13 * time.Second)
			batch = append(batch, lifelog.Event{
				UserID: u, Time: cursor, Type: lifelog.EventClick,
				Action: uint32(r % 7), Value: 1,
			})
		}
		if err := ingest(batch); err != nil {
			return fail(fmt.Errorf("ingest round %d: %w", r, err))
		}
		if _, err := sc.Ingest(batch); err != nil {
			return fail(fmt.Errorf("shadow mirror round %d: %w", r, err))
		}
		// Stretch the write window so the transfer genuinely overlaps it.
		time.Sleep(time.Millisecond)
	}
	if err := <-handoffDone; err != nil {
		return fail(fmt.Errorf("handoff: %w", err))
	}
	if handoff.Moved == 0 {
		return fail(fmt.Errorf("handoff moved 0 slots (epoch %d)", handoff.Epoch))
	}

	// Gossip must converge every node on the post-flip epoch before the
	// survivors can be probed deterministically.
	deadline := time.Now().Add(15 * time.Second)
	for {
		settled := true
		for _, u := range urls {
			var t wire.Topology
			if err := getJSON(u+wire.TopologyPath, &t); err != nil || t.Epoch < handoff.Epoch {
				settled = false
				break
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("cluster never converged on epoch %d", handoff.Epoch))
		}
		time.Sleep(20 * time.Millisecond)
	}

	lost := 0
	for _, u := range users {
		path := fmt.Sprintf("/v1/users/%d/sensibilities", u)
		got, err := getBody(target + path)
		if err != nil {
			lost++
			continue
		}
		want, err := getBody(shadowURL + path)
		if err != nil {
			return fail(fmt.Errorf("shadow read: %w", err))
		}
		if !bytes.Equal(got, want) {
			lost++
		}
	}
	return handoff, lost, handoff.Moved, nil
}

// getJSON decodes a GET response body into out, insisting on 200.
func getJSON(url string, out any) error {
	raw, err := getBody(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// getBody GETs url and returns the body, insisting on 200.
func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, raw)
	}
	return raw, nil
}

// postJSON POSTs in as JSON and decodes the 200 response into out.
func postJSON(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, raw)
	}
	return json.Unmarshal(raw, out)
}

// runTorture is the CLI half of the torture repro contract: a failing
// sweep (here or in CI) prints a schedule seed, and
// `spabench -torture -seed N` replays exactly that schedule. Without an
// explicit -seed it sweeps fresh schedules under -torture-budget.
func runTorture(seed uint64, replayOne bool, budget time.Duration, schedules int) error {
	if replayOne {
		dir, err := os.MkdirTemp("", "spabench-torture-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		fmt.Printf("[torture] replaying schedule seed %d\n", seed)
		res, err := torture.RunSchedule(seed, dir)
		if err != nil {
			return err
		}
		fmt.Printf("[torture] clean: %d waves, %d faults fired, %d reopens\n",
			res.Waves, res.Faults, res.Reopens)
		return nil
	}
	fmt.Printf("[torture] sweep: seed %d, budget %v\n", seed, budget)
	rep := torture.Run(torture.Config{
		Seed:      seed,
		Budget:    budget,
		Schedules: schedules,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if rep.Err != nil {
		return fmt.Errorf("%w\nrepro: spabench -torture -seed %d", rep.Err, rep.FailedSeed)
	}
	fmt.Printf("[torture] clean: %d schedules, %d waves, %d faults fired, %d reopens in %v\n",
		rep.Schedules, rep.Waves, rep.Faults, rep.Reopens, rep.Elapsed.Round(time.Millisecond))
	return nil
}

// runLoadgen drives an external spad and reports one loadgen record.
func runLoadgen(em *emitter, baseURL string, clients, requests int, stream, register bool) error {
	transport := "per-request"
	if stream {
		transport = "streamed"
	}
	em.printf("[loadgen] %s — %d clients, %d requests (%s)\n", baseURL, clients, requests, transport)
	res, err := scalebench.RunLoadgen(scalebench.LoadgenConfig{
		BaseURL:  baseURL,
		Clients:  clients,
		Requests: requests,
		Register: register,
		Stream:   stream,
	})
	if err != nil {
		return err
	}
	em.printf("  throughput : %8.0f events/s (%d events in %v)\n",
		res.EventsPerSec, res.Events, res.Duration.Round(time.Millisecond))
	em.printf("  latency    : p50 %s  p95 %s  p99 %s\n",
		res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond), res.P99.Round(time.Microsecond))
	em.printf("  coalescing : mean batch %.1f, max %d\n", res.MeanCoalesced, res.MaxCoalesced)
	em.printf("  errors     : %d of %d requests\n", res.Errors, res.Requests)
	em.emit("loadgen", map[string]any{"result": res, "base_url": baseURL})
	return nil
}

// runStreamSmoke is the CI drain probe: open one persistent stream, keep
// shipping frames until the daemon begins its shutdown drain (SIGTERM in
// the CI job), and report how many frames were acknowledged. Every
// acknowledged frame was committed before its answer was written, so
// "acked >= 2 and the stream ended in a drain, not a hang" is exactly
// "SIGTERM mid-stream commits the in-flight frames". Output is one JSON
// object on stdout for the job to assert with jq.
func runStreamSmoke(baseURL string) error {
	c := spaclient.New(baseURL, spaclient.Options{Timeout: 10 * time.Second})
	const user = 3_000_000
	if err := c.Register(user, nil); err != nil {
		var apiErr *spaclient.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
			return fmt.Errorf("register: %w", err)
		}
	}
	si := c.Stream(spaclient.StreamOptions{})
	defer si.Close()

	acked := 0
	stopErr := ""
	base := time.Now()
	deadline := base.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ev := []lifelog.Event{{
			UserID: user,
			Time:   base.Add(time.Duration(acked) * time.Millisecond),
			Type:   lifelog.EventClick,
			Action: 7,
		}}
		resp, err := si.Ingest(ev)
		if err != nil {
			// Expected terminal condition: the daemon drained and closed
			// (or refused the redial while draining).
			stopErr = err.Error()
			break
		}
		if resp.Processed != 1 {
			return fmt.Errorf("frame %d: processed %d", acked, resp.Processed)
		}
		acked++
		// A gentle pace keeps frames in flight across the SIGTERM without
		// racing through the 30s budget.
		time.Sleep(5 * time.Millisecond)
	}
	out := map[string]any{"acked": acked, "drained": stopErr != "", "stop_error": stopErr}
	json.NewEncoder(os.Stdout).Encode(out)
	if acked < 2 {
		return fmt.Errorf("only %d frames acknowledged before drain", acked)
	}
	if stopErr == "" {
		return errors.New("stream never observed the daemon drain")
	}
	return nil
}

func runAblations(em *emitter, base campaign.ExperimentConfig) error {
	em.printf("\n[A1] Feature-set ablation (svm-pegasos)\n")
	a1 := []map[string]any{}
	for _, fsel := range []campaign.FeatureSet{
		campaign.ObjectiveOnly(),
		{Objective: true, Subjective: true},
		campaign.FullFeatures(),
	} {
		cfg := base
		cfg.Features = fsel
		fig, _, err := campaign.RunExperiment(cfg)
		if err != nil {
			return err
		}
		em.printf("  %-4s capture@40 %5.1f%%  score %5.1f%%  AUC %.3f\n",
			fsel, fig.CapturedAt40*100, fig.AvgPredictiveScore*100, fig.AUC)
		a1 = append(a1, map[string]any{
			"features": fmt.Sprint(fsel), "captured_at_40": fig.CapturedAt40,
			"score": fig.AvgPredictiveScore, "auc": fig.AUC,
		})
	}
	em.emit("A1", map[string]any{"rows": a1})

	em.printf("\n[A2] Learner ablation (features OSE)\n")
	a2 := []map[string]any{}
	for _, l := range []campaign.Learner{
		campaign.LearnerSVM, campaign.LearnerSVMDual, campaign.LearnerLogistic,
		campaign.LearnerRandom, campaign.LearnerPopularity,
	} {
		cfg := base
		cfg.Learner = l
		fig, _, err := campaign.RunExperiment(cfg)
		if err != nil {
			return err
		}
		em.printf("  %-12s capture@40 %5.1f%%  score %5.1f%%\n",
			l, fig.CapturedAt40*100, fig.AvgPredictiveScore*100)
		a2 = append(a2, map[string]any{
			"learner": fmt.Sprint(l), "captured_at_40": fig.CapturedAt40,
			"score": fig.AvgPredictiveScore,
		})
	}
	em.emit("A2", map[string]any{"rows": a2})

	em.printf("\n[A3] Reward/punish loop ablation\n")
	a3 := []map[string]any{}
	for _, update := range []bool{true, false} {
		cfg := base
		cfg.UpdateSUM = update
		fig, _, err := campaign.RunExperiment(cfg)
		if err != nil {
			return err
		}
		em.printf("  update=%-5v capture@40 %5.1f%%  score %5.1f%%  AUC %.3f\n",
			update, fig.CapturedAt40*100, fig.AvgPredictiveScore*100, fig.AUC)
		a3 = append(a3, map[string]any{
			"update": update, "captured_at_40": fig.CapturedAt40,
			"score": fig.AvgPredictiveScore, "auc": fig.AUC,
		})
	}
	em.emit("A3", map[string]any{"rows": a3})
	return nil
}

func okIf(ok bool) string {
	if ok {
		return "[OK]"
	}
	return "[MISMATCH]"
}
