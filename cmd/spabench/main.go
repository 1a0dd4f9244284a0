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
//	[-stream] [-stream-smoke URL] [-stages] [-check-metrics URL]
//	[-torture [-torture-budget D] [-torture-schedules N]]
//
// The scale sections measure the serving stack with the paper's workload
// shapes: [S3] wire framing (binary vs JSON), [S5] streamed vs per-request
// ingest, [S6] a zipf + diurnal mixed-endpoint scenario, [S8] read scaling
// with one replication follower, [S9] a three-node slot-partitioned
// cluster with a live handoff. Every section boots the stack `spad -data D`
// runs; the end-to-end serving benchmark with a checked-in contract is
// bench/ (`go run ./bench`).
//
// -json switches the output to machine-readable results: one JSON object
// per section on stdout (the human table is suppressed), so a bench
// trajectory can be captured as BENCH_*.json instead of scraping text.
//
// -loadgen URL skips the paper sections entirely and drives an already
// running spad (cmd/spad) over its wire API with -clients concurrent
// clients, reporting throughput and latency percentiles — the same
// measurement the self-hosted [S3] and [S5] sections make. -no-register reuses a
// previous run's population instead of registering (a re-run against the
// same data dir would otherwise count 409s as errors). -stream switches
// the loadgen onto the persistent binary stream transport ([S5]).
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
	"strings"
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
	skipScale := flag.Bool("skip-scale", false, "skip the S3, S5, S6, S8 and S9 scale sections")
	jsonOut := flag.Bool("json", false, "emit one JSON object per section instead of the table")
	clients := flag.Int("clients", scalebench.Workers, "concurrent clients for the scale sections and -loadgen")
	requests := flag.Int("requests", 2048, "total ingest requests for S3/S5 and -loadgen")
	loadgen := flag.String("loadgen", "", "drive a running spad at this base URL and exit (e.g. http://127.0.0.1:8372)")
	stream := flag.Bool("stream", false, "with -loadgen: speak the persistent binary stream instead of per-request HTTP")
	noRegister := flag.Bool("no-register", false, "with -loadgen: skip user registration (reuse a previous run's population)")
	streamSmoke := flag.String("stream-smoke", "", "streamed-ingest drain smoke against a running spad at this base URL: ship frames until the daemon drains, then report")
	tortureMode := flag.Bool("torture", false, "run the storage torture sweep and exit; with an explicit -seed N, replay that one fault schedule")
	tortureBudget := flag.Duration("torture-budget", 30*time.Second, "with -torture: wall-clock budget for the sweep")
	tortureSchedules := flag.Int("torture-schedules", 0, "with -torture: max fault schedules (0 = budget-bound)")
	stages := flag.Bool("stages", false, "after [S5], rerun the streamed mode once instrumented and print the per-stage latency breakdown from /metrics")
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
		err = run(em, *users, *seed, !*skipAblations, !*skipScale, *clients, *requests, *stages)
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

func run(em *emitter, users int, seed uint64, ablations, scale bool, clients, requests int, stages bool) error {
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
		if err := runScaleServeWire(em, clients, requests); err != nil {
			return err
		}
		if err := runScaleServeStream(em, clients, requests); err != nil {
			return err
		}
		if stages {
			if err := runStagesPass(em, clients, requests); err != nil {
				return err
			}
		}
		if err := runScaleServeScenario(em, seed, clients); err != nil {
			return err
		}
		if err := runScaleServeRepl(em, seed, clients); err != nil {
			return err
		}
		if err := runScaleServeCluster(em, seed, clients); err != nil {
			return err
		}
	}
	em.printf("\ndone in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// serveStack boots one durable spad stack on loopback — HTTP server,
// pipelined coalescer, sharded core, fsync on — and hands the base URL and
// the core to fn, tearing everything down afterwards. Every serving section
// measures this identical configuration. The core handle is for what the
// wire cannot do: the propensity model has no training endpoint (training
// is an offline batch job, per the paper), so [S8] trains in-process.
func serveStack(shards int, fn func(baseURL string, spa *core.SPA) error) error {
	dir, err := os.MkdirTemp("", "spabench-serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spa, err := core.New(core.Options{
		DataDir: dir,
		Store:   store.Options{SyncWrites: true},
		Shards:  shards,
		Clock:   clock.NewSimulated(clock.Epoch),
	})
	if err != nil {
		return err
	}
	// A short linger lets the dispatcher gather the full client wave
	// into each group commit.
	srv := server.New(spa, server.Options{MaxDelay: 2 * time.Millisecond})
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
	return fn("http://"+ln.Addr().String(), spa)
}

// runScaleServeWire is the wire-format comparison [S3]: the live serving
// stack (spad on loopback, fsync on), with the loadgen clients speaking
// JSON versus the
// length-prefixed binary framing. The codec overhead is per event, so the
// comparison uses bulk-upload-sized requests (128 users x PerUser events —
// a device syncing a day's LifeLog, not a live trickle) and a stack whose
// fsync floor (8 shards) does not drown the protocol cost under disk
// waits: JSON encode/decode then caps throughput on CPU-bound hosts and
// the binary framing pushes the bottleneck back to the store.
func runScaleServeWire(em *emitter, clients, requests int) error {
	const usersPerRequest = 128
	em.printf("\n[S3] Wire framing: binary vs JSON ingest (%d clients, %d requests of %d events, fsync on)\n",
		clients, requests, usersPerRequest*scalebench.PerUser)

	measure := func(jsonOnly bool) (res scalebench.LoadgenResult, err error) {
		err = serveStack(8, func(baseURL string, _ *core.SPA) error {
			res, err = scalebench.RunLoadgen(scalebench.LoadgenConfig{
				BaseURL:         baseURL,
				Clients:         clients,
				Requests:        requests,
				Register:        true,
				UsersPerRequest: usersPerRequest,
				JSONOnly:        jsonOnly,
			})
			return err
		})
		return res, err
	}

	// fsync latency on shared storage is noisy between runs: interleave the
	// modes and keep each one's best of two windows, so the noise cannot
	// masquerade as a protocol difference.
	var jsonRes, binRes scalebench.LoadgenResult
	for round := 0; round < 2; round++ {
		j, err := measure(true)
		if err != nil {
			return err
		}
		if j.EventsPerSec > jsonRes.EventsPerSec {
			jsonRes = j
		}
		b, err := measure(false)
		if err != nil {
			return err
		}
		if b.EventsPerSec > binRes.EventsPerSec {
			binRes = b
		}
	}
	speedup := 0.0
	if jsonRes.EventsPerSec > 0 {
		speedup = binRes.EventsPerSec / jsonRes.EventsPerSec
	}
	ok := speedup > 1 && binRes.Errors == 0 && jsonRes.Errors == 0
	em.printf("  json ingest    : %8.0f events/s   p50 %6s  p99 %6s  (%d errors)\n",
		jsonRes.EventsPerSec, jsonRes.P50.Round(time.Microsecond), jsonRes.P99.Round(time.Microsecond), jsonRes.Errors)
	em.printf("  binary ingest  : %8.0f events/s   p50 %6s  p99 %6s  (%d errors, mean batch %.1f)\n",
		binRes.EventsPerSec, binRes.P50.Round(time.Microsecond), binRes.P99.Round(time.Microsecond),
		binRes.Errors, binRes.MeanCoalesced)
	em.printf("  speedup        : %.2fx   %s\n", speedup, okIf(ok))
	em.emit("S3", map[string]any{
		"json":    jsonRes,
		"binary":  binRes,
		"speedup": speedup,
		"ok":      ok,
	})
	return nil
}

// runScaleServeStream is the transport comparison [S5]: the serving stack
// (spad on loopback, fsync on, 32 shards), with the clients speaking
// per-request binary HTTP
// versus persistent binary streams. The stream removes the per-request
// HTTP cycle AND pipelines: each of the K clients keeps a 4-frame credit
// window in flight on its one connection, so the coalescer sees K×4
// concurrent requests instead of K stop-and-wait ones — deeper waves,
// fewer fsyncs per event. That pipelining is the capability under test:
// HTTP/1.1 cannot do it on one connection.
func runScaleServeStream(em *emitter, clients, requests int) error {
	const streamWindow = 4
	em.printf("\n[S5] Streamed ingest: persistent binary stream vs per-request binary HTTP (%d clients, %d requests of %d events, window %d, fsync on)\n",
		clients, requests, 32*scalebench.PerUser, streamWindow)

	measure := func(stream bool) (res scalebench.LoadgenResult, err error) {
		err = serveStack(32, func(baseURL string, _ *core.SPA) error {
			res, err = scalebench.RunLoadgen(scalebench.LoadgenConfig{
				BaseURL:         baseURL,
				Clients:         clients,
				Requests:        requests,
				Register:        true,
				UsersPerRequest: 32,
				Stream:          stream,
				StreamWindow:    streamWindow,
			})
			return err
		})
		return res, err
	}

	// Same discipline as [S3]: interleave the modes and keep each one's
	// best of two windows, so shared-storage fsync noise cannot masquerade
	// as a transport difference.
	var perReq, streamed scalebench.LoadgenResult
	for round := 0; round < 2; round++ {
		p, err := measure(false)
		if err != nil {
			return err
		}
		if p.EventsPerSec > perReq.EventsPerSec {
			perReq = p
		}
		s, err := measure(true)
		if err != nil {
			return err
		}
		if s.EventsPerSec > streamed.EventsPerSec {
			streamed = s
		}
	}
	speedup := 0.0
	if perReq.EventsPerSec > 0 {
		speedup = streamed.EventsPerSec / perReq.EventsPerSec
	}
	ok := speedup > 1 && streamed.Errors == 0 && perReq.Errors == 0
	em.printf("  per-request    : %8.0f events/s   p50 %6s  p99 %6s  (%d errors)\n",
		perReq.EventsPerSec, perReq.P50.Round(time.Microsecond), perReq.P99.Round(time.Microsecond), perReq.Errors)
	em.printf("  streamed       : %8.0f events/s   p50 %6s  p99 %6s  (%d errors, mean batch %.1f)\n",
		streamed.EventsPerSec, streamed.P50.Round(time.Microsecond), streamed.P99.Round(time.Microsecond),
		streamed.Errors, streamed.MeanCoalesced)
	em.printf("  speedup        : %.2fx   %s\n", speedup, okIf(ok))
	em.emit("S5", map[string]any{
		"per_request": perReq,
		"streamed":    streamed,
		"speedup":     speedup,
		"ok":          ok,
	})
	return nil
}

// runStagesPass (spabench -stages) reruns [S5]'s streamed mode once more
// on a fresh stack, then scrapes /metrics and prints the per-stage latency
// breakdown next to the loadgen's end-to-end percentiles. The cross-check: the medians of the stages a request
// traverses (decode, queue, gather, prepare, commit) should sum to
// roughly the e2e p50, within the histogram's ±9% bucket error plus the
// fan-back/transport overhead the stages don't cover.
func runStagesPass(em *emitter, clients, requests int) error {
	const streamWindow = 4
	var res scalebench.LoadgenResult
	var stats []scalebench.StageStat
	err := serveStack(32, func(baseURL string, _ *core.SPA) error {
		var err error
		res, err = scalebench.RunLoadgen(scalebench.LoadgenConfig{
			BaseURL:         baseURL,
			Clients:         clients,
			Requests:        requests,
			Register:        true,
			UsersPerRequest: 32,
			Stream:          true,
			StreamWindow:    streamWindow,
		})
		if err != nil {
			return err
		}
		m, err := scalebench.FetchMetrics(baseURL)
		if err != nil {
			return err
		}
		stats = scalebench.StageBreakdown(m)
		return nil
	})
	if err != nil {
		return err
	}
	em.printf("\n[S5-stages] Stage breakdown: persistent stream, window %d (instrumented pass)\n", streamWindow)
	em.printf("%s", scalebench.FormatStages(stats))
	sum := scalebench.SumStageP50(stats)
	em.printf("  sum of request-path stage p50s: %s   e2e p50: %s   e2e p99: %s\n",
		sum.Round(time.Microsecond), res.P50.Round(time.Microsecond), res.P99.Round(time.Microsecond))
	em.emit("S5-stages", map[string]any{
		"stages":         stats,
		"sum_stage_p50":  sum.Nanoseconds(),
		"e2e_p50":        res.P50.Nanoseconds(),
		"e2e_p99":        res.P99.Nanoseconds(),
		"events_per_sec": res.EventsPerSec,
	})
	return nil
}

// runScaleServeScenario is the workload-realism section [S6]: instead of
// the uniform ingest bursts of [S3] and [S5], it replays a seed-derived
// scenario — zipf-skewed users, diurnal session sizing, mixed-endpoint
// sessions (ingest, recommendation pulls, Gradual EIT question/answer,
// campaign reward) — against the full pipelined stack, so the read path
// and the write path contend for the same shards and both report
// throughput and tail latency.
func runScaleServeScenario(em *emitter, seed uint64, clients int) error {
	const sessions = 256
	em.printf("\n[S6] Scenario replay: zipf + diurnal mixed-endpoint sessions (%d sessions, %d clients, fsync on, seed %d)\n",
		sessions, clients, seed)

	var res scalebench.ScenarioResult
	err := serveStack(32, func(baseURL string, _ *core.SPA) error {
		var err error
		res, err = scalebench.RunScenario(scalebench.ScenarioConfig{
			BaseURL:  baseURL,
			Seed:     seed,
			Clients:  clients,
			Sessions: sessions,
			Register: true,
		})
		return err
	})
	if err != nil {
		return err
	}
	// The section passes when both serving paths delivered without errors
	// and the replay was visibly skewed (the hottest 1% of users must own
	// several times their uniform session share).
	top := scalebench.Users / 100
	if top < 1 {
		top = 1
	}
	uniform := float64(top) / float64(scalebench.Users)
	ok := res.Errors == 0 && res.ReadOps > 0 && res.Top1PctShare > 2*uniform
	em.printf("  write side     : %8.0f events/s   p50 %6s  p99 %6s  (%d ops)\n",
		res.WriteEventsPerSec, res.WriteP50.Round(time.Microsecond), res.WriteP99.Round(time.Microsecond), res.WriteOps)
	em.printf("  read side      : %8.0f ops/s      p50 %6s  p99 %6s  (%d ops, %d cold)\n",
		res.ReadOpsPerSec, res.ReadP50.Round(time.Microsecond), res.ReadP99.Round(time.Microsecond), res.ReadOps, res.ColdReads)
	em.printf("  skew           : top-1%% of users own %.1f%% of sessions   (%d errors)   %s\n",
		100*res.Top1PctShare, res.Errors, okIf(ok))
	em.emit("S6", map[string]any{
		"result": res,
		"ok":     ok,
	})
	return nil
}

// runScaleServeRepl is the replication section [S8]: a 90/10 read-heavy
// mixed workload (recommendation pulls, advice, propensity, select-top
// against concurrent ingest bursts), against a leader plus one streaming
// follower (the WAL-shipping pair of DESIGN.md §9). Writes land on the
// leader; the routed clients spread reads round-robin across both nodes,
// gated on the follower's reported staleness. The section reports the
// aggregate read throughput against a single-node baseline measured on the
// same stack — with the follower attached and shipping either way, so the
// comparison isolates where the reads go, not the cost of having a
// follower — plus the staleness distribution the follower actually
// exhibited while serving its share of the reads.
func runScaleServeRepl(em *emitter, seed uint64, clients int) error {
	const (
		ops      = 1200
		lagBound = 64
	)
	em.printf("\n[S8] Replicated reads: leader + 1 follower vs single node (90/10 mix, %d ops, %d clients, staleness bound %d waves, fsync on, seed %d)\n",
		ops, clients, lagBound, seed)

	var single, dual scalebench.MixedResult
	var stale scalebench.Staleness
	err := serveStack(32, func(baseURL string, spa *core.SPA) error {
		leaderAddr := strings.TrimPrefix(baseURL, "http://")

		// Boot the follower before any traffic, so the whole population
		// and its CF interactions replicate over the live stream
		// (interaction counts are process-local and travel only in wave
		// annotations — a snapshot-bootstrapped follower would answer
		// recommendations cold).
		fdir, err := os.MkdirTemp("", "spabench-follower-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(fdir)
		// The follower runs with fsync off: durability is the leader's
		// contract, and a replica that loses its tail re-subscribes from
		// whatever LSN its log replays to (or re-bootstraps) — so the
		// read-scaling node does not pay a second fsync per shipped wave.
		if _, err := server.BootstrapFollower(fdir, leaderAddr, store.Options{}); err != nil {
			return err
		}
		fspa, err := core.New(core.Options{
			DataDir: fdir,
			Shards:  32,
			Clock:   clock.NewSimulated(clock.Epoch),
		})
		if err != nil {
			return err
		}
		fsrv := server.New(fspa, server.Options{FollowerOf: leaderAddr})
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fsrv.Close()
			fspa.Close()
			return err
		}
		fhttp := &http.Server{Handler: fsrv}
		go fhttp.Serve(fln)
		followerURL := "http://" + fln.Addr().String()
		defer func() {
			fhttp.Close()
			fsrv.Close()
			fspa.Close()
		}()

		// Warm population + CF interactions on the leader, then train the
		// propensity model on BOTH cores: the model ships out-of-band
		// (training is an offline batch job, per the paper), so each node
		// loads its own copy.
		warm, err := scalebench.RunMixed(scalebench.MixedConfig{
			BaseURL: baseURL, Seed: seed, Clients: clients,
			Ops: 64, ReadFraction: 0.01, Register: true,
		})
		if err != nil {
			return err
		}
		if warm.Errors > 0 {
			return fmt.Errorf("warmup: %d errors", warm.Errors)
		}
		if err := waitFollower(baseURL, followerURL, 30*time.Second); err != nil {
			return err
		}
		for _, node := range []*core.SPA{spa, fspa} {
			var feats [][]float64
			var labels []bool
			for id := uint64(1); id <= scalebench.Users; id++ {
				fv, err := node.FeatureVector(id)
				if err != nil {
					return err
				}
				feats = append(feats, fv)
				labels = append(labels, id%2 == 0)
			}
			if err := node.TrainPropensity(feats, labels); err != nil {
				return err
			}
		}

		// Single-node baseline: every read on the leader (follower attached
		// but idle on the read side).
		single, err = scalebench.RunMixed(scalebench.MixedConfig{
			BaseURL: baseURL, Seed: seed, Clients: clients, Ops: ops,
		})
		if err != nil {
			return err
		}
		if err := waitFollower(baseURL, followerURL, 30*time.Second); err != nil {
			return err
		}

		// Two-node run: same workload, reads split across both nodes, the
		// follower's lag sampled throughout.
		stop := make(chan struct{})
		staleCh := make(chan scalebench.Staleness, 1)
		go func() {
			staleCh <- scalebench.SampleFollowerLag(followerURL, 10*time.Millisecond, stop)
		}()
		dual, err = scalebench.RunMixed(scalebench.MixedConfig{
			BaseURL:           baseURL,
			Seed:              seed + 1,
			Clients:           clients,
			Ops:               ops,
			ReadFrom:          []string{followerURL},
			MaxStalenessWaves: lagBound,
		})
		close(stop)
		stale = <-staleCh
		return err
	})
	if err != nil {
		return err
	}
	scaling := 0.0
	if single.ReadOpsPerSec > 0 {
		scaling = dual.ReadOpsPerSec / single.ReadOpsPerSec
	}
	// The scaling target (≥1.6x aggregate reads at 2 nodes) needs the two
	// nodes on separate cores: with ≥4 usable cores the single-node
	// baseline saturates its serving capacity and the follower's core is
	// genuinely additive. On a smaller host both nodes time-share one CPU,
	// so added capacity is physically zero and the criterion degrades to
	// "replication must not crater the stack": reads within 60% of single
	// node while every shipped wave is applied, fsynced and sampled. Either
	// way staleness must be bounded and observed, with zero errors.
	clean := single.Errors == 0 && dual.Errors == 0 &&
		stale.Samples > 0 && stale.P95 <= lagBound
	scalingFloor := 1.6
	if runtime.NumCPU() < 4 {
		scalingFloor = 0.6
	}
	ok := clean && scaling >= scalingFloor
	em.printf("  single node    : reads %8.0f ops/s  p50 %6s  p99 %6s | writes %8.0f events/s  (%d errors)\n",
		single.ReadOpsPerSec, single.ReadP50.Round(time.Microsecond), single.ReadP99.Round(time.Microsecond),
		single.WriteEventsPerSec, single.Errors)
	em.printf("  leader+follower: reads %8.0f ops/s  p50 %6s  p99 %6s | writes %8.0f events/s  (%d errors)\n",
		dual.ReadOpsPerSec, dual.ReadP50.Round(time.Microsecond), dual.ReadP99.Round(time.Microsecond),
		dual.WriteEventsPerSec, dual.Errors)
	em.printf("  read scaling   : %.2fx (target %.1fx on %d cpus)   staleness p50 %d  p95 %d  max %d waves (%d samples, bound %d)   %s\n",
		scaling, scalingFloor, runtime.NumCPU(), stale.P50, stale.P95, stale.Max, stale.Samples, lagBound, okIf(ok))
	em.emit("S8", map[string]any{
		"single":        single,
		"dual":          dual,
		"read_scaling":  scaling,
		"scaling_floor": scalingFloor,
		"cpus":          runtime.NumCPU(),
		"staleness":     stale,
		"ok":            ok,
	})
	return nil
}

// runScaleServeCluster is the cluster section [S9]: the [S6] scenario
// replay against a 3-node slot-partitioned cluster (DESIGN.md §10) with
// topology-routed clients, versus the same replay against one node of the
// identical stack configuration. Three properties are under test: the
// slot map spreads both slots and users across the nodes (within 2x of
// the ideal share), aggregate ingest scales with the node count when the
// host has the cores to back it, and a live slot handoff under write load
// loses no acknowledged write — checked by mirroring every acknowledged
// batch into a standalone shadow node and comparing the moved users'
// profiles byte-for-byte afterwards.
func runScaleServeCluster(em *emitter, seed uint64, clients int) error {
	const (
		sessions = 256
		numNodes = 3
	)
	em.printf("\n[S9] Cluster: %d slot-partitioned nodes vs single node (zipf scenario, %d sessions, %d clients, fsync on, seed %d)\n",
		numNodes, sessions, clients, seed)

	// Single-node baseline: the same scenario on the same stack shape.
	var single scalebench.ScenarioResult
	err := serveStack(32, func(baseURL string, _ *core.SPA) error {
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
	// Like [S8], the scaling target needs real cores behind the nodes:
	// with ≥4 CPUs three nodes commit on independent fsync streams and
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
// node a full [S6]-shape stack (pipelined coalescer, 32 shards, fsync on)
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
			MaxDelay:      2 * time.Millisecond,
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

// waitFollower blocks until the follower reports a streaming session
// caught up to the leader's position at call time.
func waitFollower(leaderURL, followerURL string, timeout time.Duration) error {
	lc := spaclient.New(leaderURL, spaclient.Options{})
	fc := spaclient.New(followerURL, spaclient.Options{})
	lst, err := lc.ReplicationStatus()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for {
		st, err := fc.ReplicationStatus()
		if err == nil && st.State == "streaming" && st.AppliedLSN >= lst.AppliedLSN && st.LastHeartbeatUnixNano > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower %s never caught up to lsn %d (last: %+v, err: %v)",
				followerURL, lst.AppliedLSN, st, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
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
