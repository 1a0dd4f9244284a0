package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/spaclient"
	"repro/internal/store"
	"repro/internal/wire"
)

// config is one invocation's settings.
type config struct {
	seed      uint64
	measure   time.Duration // measured window
	warm      time.Duration // warm-up before it
	scale     int           // population divisor: 1, or 16 under -smoke
	trace     bool          // run the traced pass and install the counting seam
	setupReps int           // set-ups per run: setupReps, or 1 where setup_s is not reported
	lanes     int           // min(2, nproc) client connections
	outDir    string        // trace files and scratch data directories
	logf      func(format string, args ...any)
	// sabotage corrupts one expected answer before verification; the test
	// that demonstrates a failing check exits non-zero sets it.
	sabotage bool
}

// setupReps is how many times a run sets its stack up; setup_s is the median,
// so one slow set-up (a cold page cache, a noisy neighbour) does not move it.
const setupReps = 3

// runResult is one workload's run.
type runResult struct {
	Workload    string    `json:"workload"`
	Seed        uint64    `json:"seed"`
	Fingerprint string    `json:"fingerprint"`
	Correct     bool      `json:"correct"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Notes       []string  `json:"notes,omitempty"`
	Metrics     metricSet `json:"metrics"`
}

// scrape is one /metrics reading of the stack plus the seam's totals.
type scrape struct {
	leader   wire.Metrics
	follower wire.Metrics
	files    fileTotals
}

func takeScrape(st *stack, seam *seamOps) (scrape, error) {
	var s scrape
	var err error
	if s.leader, err = spaclient.New(st.leader.url, spaclient.Options{}).Metrics(); err != nil {
		return s, fmt.Errorf("scraping leader /metrics: %w", err)
	}
	if st.follower != nil {
		if s.follower, err = spaclient.New(st.follower.url, spaclient.Options{}).Metrics(); err != nil {
			return s, fmt.Errorf("scraping follower /metrics: %w", err)
		}
	}
	if seam != nil {
		s.files = seam.read()
	}
	return s, nil
}

// seamMetrics reports what the counting seam saw under load (traced runs
// only: an untraced timed run installs no seam).
func seamMetrics(w *windowResult, ms metricSet) {
	d := w.s1.files.sub(w.s0.files)
	ms.set("store.flushes", float64(d.walOpens), 1)
	ms.set("file.seg_write_bytes", float64(d.segBytes), 1)
	ms.set("store.compaction_bytes_per_wal_byte", ratio(float64(d.mergeBytes), float64(d.walBytes)), 1)
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	// A file removed mid-walk (a compaction finishing) is simply skipped.
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// runWorkload is one workload end to end: set-up (repeated), the timed
// window, the traced pass when asked for, and the correctness checks.
func runWorkload(cfg *config, name string) (*runResult, error) {
	sh := shapes[name].scaled(cfg.scale)
	res := &runResult{Workload: name, Seed: cfg.seed, Metrics: metricSet{}}
	res.Fingerprint = fingerprint(cfg, name, sh)

	root, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	d := &dirs{root: root}

	var hot []uint64
	if name == wlSessionMix {
		hot = newSessionGen(cfg.seed, sh.users).hottest(sampleUsers)
	}
	// A traced run's timed stack carries the count-only file seam and the
	// clocked socket; an untraced one carries neither.
	var seam *seamOps
	var fops store.FileOps
	sock := plainSocket
	if cfg.trace {
		seam = &seamOps{}
		fops = seam
		sock = clockedSocket
	}

	var (
		st     *stack
		log    *opLog
		setups []float64
	)
	for rep := 0; rep < cfg.setupReps; rep++ {
		if st != nil {
			if err := st.shutdown(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", rep, err)
			}
		}
		log = newOpLog(cfg.seed, sh.users, hot)
		t0 := time.Now()
		if st, err = setupStack(d, cfg.seed, name, sh, fops, sock, log); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		cfg.logf("%s: set-up %d/%d took %.3fs", name, rep+1, cfg.setupReps, setups[rep])
	}
	defer func() {
		if st != nil {
			st.shutdown()
		}
	}()
	probe, err := fsyncProbe(root)
	if err != nil {
		return nil, err
	}
	// The populated stack's footprint, before any traffic: what the
	// population costs to hold, independent of how much work the window
	// then gets done.
	heapAfterSetup := liveHeapMiB()

	w, err := runWindow(cfg, name, sh, st, seam, log)
	if err != nil {
		return nil, err
	}
	w.fsyncProbe = probe
	w.diskBytes = dirBytes(st.leader.dir)
	if pairs, _, err := st.leader.spa.ExportSnapshot(); err == nil {
		for _, p := range pairs {
			w.liveBytes += int64(len(p.Key) + len(p.Value))
		}
	}
	ms := res.Metrics
	windowMetrics(name, w, ms, res)
	ms.set("live_heap_mb", heapAfterSetup, 1)
	ms.set("setup_s", medianFloat(setups), len(setups))
	ms.set("core.reopen_ms", float64(st.reopen)/1e6, 1)
	if st.follower != nil {
		ms.set("server.repl.bootstrap_ms", float64(st.bootstrap)/1e6, 1)
	}
	if seam != nil {
		seamMetrics(w, ms)
	}

	if cfg.trace {
		if err := tracedPass(cfg, name, sh, st, d, ms); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}

	ck := &checks{}
	shadow, err := log.shadow(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("building the shadow core: %w", err)
	}
	if cfg.sabotage {
		// One wrong expectation: the run must report it and exit non-zero.
		if item, err := shadow.NextQuestion(log.users[0]); err == nil {
			shadow.SubmitAnswer(log.users[0], emotion.Answer{ItemID: item.ID})
		}
	}
	verifyLive(name, st, log, shadow, w, ck)
	dir := st.leader.dir
	err = st.shutdown()
	st = nil
	if err != nil {
		return nil, fmt.Errorf("shutting the stack down: %w", err)
	}
	verifyReopened(dir, log, shadow, ck)

	res.Attempted += ck.attempted
	res.Failed += ck.failed
	res.Notes = append(res.Notes, ck.notes...)
	res.Correct = res.Failed == 0
	ms.set("failed_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	ms.fillMissing()
	return res, nil
}

// verifyLive runs the checks that need the stack up: served profiles
// against the shadow, sampled read_hot responses against the core, and the
// follower against its leader once the writer has stopped.
func verifyLive(name string, st *stack, log *opLog, shadow *core.SPA, w *windowResult, ck *checks) {
	ck.sameProfiles("live", log, st.leader.spa, shadow)
	if name == wlReadHot {
		var samples []sampledRead
		for _, ws := range w.stats {
			samples = append(samples, ws.reads...)
		}
		ck.sameReads(st.leader.spa, samples)
	}
	if st.follower != nil {
		ck.attempted++
		if err := waitCaughtUp(st, 30*time.Second); err != nil {
			ck.fail("after the writer stopped: %v", err)
			return
		}
		ck.sameProfiles("follower", log, st.follower.spa, st.leader.spa)
	}
}

// verifyReopened is the durability check: the data directory, reopened
// after a clean shutdown, must hold the same sampled profiles.
func verifyReopened(dir string, log *opLog, shadow *core.SPA, ck *checks) {
	reopened, err := openCore(dir, nil)
	if err != nil {
		ck.attempted++
		ck.fail("reopening %s: %v", dir, err)
		return
	}
	defer reopened.Close()
	ck.sameProfiles("reopened", log, reopened, shadow)
}
