package torture

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/sum"
)

// Config drives one torture sweep.
type Config struct {
	// Seed derives every schedule; the same Seed replays the same sweep.
	Seed uint64
	// Schedules caps how many schedules run; <= 0 leaves the count to the
	// Budget. With neither set, 8 schedules run.
	Schedules int
	// Budget stops claiming new schedules once the wall clock exceeds it
	// (at least one schedule always runs).
	Budget time.Duration
	// Parallel is the number of concurrent schedules (schedules are fully
	// independent — own directory, own cores). Default min(GOMAXPROCS, 8).
	Parallel int
	// Dir is the parent for per-schedule scratch directories; empty uses
	// the system temp directory.
	Dir string
	// Log, when set, receives coarse progress lines.
	Log func(format string, args ...any)
	// Schedule is the per-seed schedule body (default RunSchedule). The
	// replication sweep substitutes RunReplSchedule (repl.go).
	Schedule func(seed uint64, dir string) (ScheduleResult, error)
}

// Report is one sweep's outcome. Err is the first violation (or harness
// failure); FailedSeed then reproduces it via RunSchedule.
type Report struct {
	Schedules  int
	Waves      int
	Faults     int
	Reopens    int
	Elapsed    time.Duration
	FailedSeed uint64
	Err        error
}

// Violation is a broken invariant, self-describing enough to file as a
// bug: the schedule seed reproduces it deterministically.
type Violation struct {
	Seed  uint64
	Msg   string
	Plan  string
	Fired []string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("torture: seed %d: %s (plan: %s; fired: %v)", v.Seed, v.Msg, v.Plan, v.Fired)
}

// ScheduleResult summarizes one schedule's run.
type ScheduleResult struct {
	Waves   int
	Faults  int
	Reopens int
}

// scheduleSeed derives schedule i's seed from the sweep seed with a
// splitmix64 finalizer, so every index is reproducible in isolation.
func scheduleSeed(sweep uint64, i int) uint64 {
	h := sweep + uint64(i)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// Run executes schedules until the count or budget is exhausted, or the
// first violation. Schedules run Parallel-wide; each is deterministic
// from its own seed, so parallelism never changes what a seed means.
func Run(cfg Config) Report {
	start := time.Now()
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
		if cfg.Parallel > 8 {
			cfg.Parallel = 8
		}
	}
	if cfg.Schedules <= 0 && cfg.Budget <= 0 {
		cfg.Schedules = 8
	}
	if cfg.Schedule == nil {
		cfg.Schedule = RunSchedule
	}
	var (
		mu   sync.Mutex
		rep  Report
		next int
		stop bool
	)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				done := stop ||
					(cfg.Schedules > 0 && next >= cfg.Schedules) ||
					(cfg.Budget > 0 && next > 0 && time.Since(start) >= cfg.Budget)
				if done {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				seed := scheduleSeed(cfg.Seed, i)
				dir, err := os.MkdirTemp(cfg.Dir, "torture-")
				var res ScheduleResult
				if err == nil {
					res, err = cfg.Schedule(seed, dir)
					// A crashed instance's fenced compactor may race the
					// removal; leftover scratch is the OS tempdir's problem.
					os.RemoveAll(dir)
				}

				mu.Lock()
				rep.Schedules++
				rep.Waves += res.Waves
				rep.Faults += res.Faults
				rep.Reopens += res.Reopens
				if err != nil && rep.Err == nil {
					rep.Err = err
					rep.FailedSeed = seed
					stop = true
				}
				if cfg.Log != nil && rep.Schedules%50 == 0 {
					cfg.Log("torture: %d schedules, %d waves, %d faults fired, %d reopens",
						rep.Schedules, rep.Waves, rep.Faults, rep.Reopens)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep
}

// RunSchedule runs one seed-determined schedule in dir: it derives the
// population, shard count, wave contents, fault plan, and reopen points
// from the seed, drives a durable core and a fault-free in-memory shadow
// core through identical waves, and checks the crash-consistency
// invariants after every wave, every reopen, and a final simulated crash.
//
// The invariants, per user u (snapshots are the shadow's encoded profile
// after each wave; "chain" is registration plus the waves touching u):
//
//   - wave-prefix recovery: after any crash+reopen, u's recovered state is
//     on the chain, at or after the last state known installed in memory —
//     an acked wave can never roll back, and no state that was never
//     submitted can appear;
//   - memory-vs-durable: live memory always shows a chain state at or
//     after the last ack (a failed wave leaves memory untouched; durable
//     state may run ahead of memory only by submitted-but-unacked waves,
//     the WAL's documented crash caveat);
//   - shard-batch atomicity: a wave's updates within one shard commit as
//     one record — users of the same shard cannot disagree about whether
//     the wave applied;
//   - bloom/index consistency: every key visible to a full scan is also
//     visible to point reads, with identical bytes;
//   - idempotent replay: reopening the directory twice (with a forced
//     compaction in between) observes identical key/value states.
func RunSchedule(seed uint64, dir string) (ScheduleResult, error) {
	r := rng.New(seed)
	users := 12 + r.Intn(13) // 12..24
	shards := []int{2, 4, 8}[r.Intn(3)]
	waves := 5 + r.Intn(6) // 5..10

	// Fault plan: 1-3 triggers over the op classes. WAL classes see an op
	// every wave, so their trigger range spans the whole run; segment and
	// directory ops are rarer (flush/compaction only), so their triggers
	// stay small enough to actually fire.
	nf := 1 + r.Intn(3)
	var plan []Fault
	for i := 0; i < nf; i++ {
		class := OpClass(r.Intn(int(numOpClasses)))
		mode := Mode(r.Intn(3))
		var nth uint64
		switch class {
		case OpWALWrite, OpWALSync:
			nth = uint64(1 + r.Intn(3*waves))
		default:
			nth = uint64(1 + r.Intn(8))
		}
		dup := false
		for _, f := range plan {
			if f.Class == class && f.Nth == nth {
				dup = true
			}
		}
		if !dup {
			plan = append(plan, Fault{Class: class, Mode: mode, Nth: nth})
		}
	}
	ops := NewScheduledOps(plan)

	mkViolation := func(format string, args ...any) *Violation {
		return &Violation{Seed: seed, Msg: fmt.Sprintf(format, args...), Plan: PlanString(plan), Fired: ops.Fired()}
	}

	tc := clock.NewSimulated(clock.Epoch)
	sc := clock.NewSimulated(clock.Epoch)
	opts := core.Options{
		DataDir: dir,
		Shards:  shards,
		Clock:   tc,
		Store: store.Options{
			MemtableBytes:   2 << 10, // tiny: every few waves flushes, compaction has runs to merge
			SyncWrites:      true,
			CompactMinRun:   2,
			CompactInterval: 2 * time.Millisecond,
			FileOps:         ops,
		},
	}
	spa, err := core.New(opts)
	if err != nil {
		return ScheduleResult{}, fmt.Errorf("torture: seed %d: opening durable core: %w", seed, err)
	}
	shadow, err := core.New(core.Options{Shards: shards, Clock: sc})
	if err != nil {
		return ScheduleResult{}, fmt.Errorf("torture: seed %d: opening shadow core: %w", seed, err)
	}
	defer shadow.Close()

	// snaps[j][u] is the shadow's encoded profile for u after wave j;
	// snaps[0] is the post-registration state of every user.
	snaps := make([]map[uint64][]byte, waves+1)
	snaps[0] = make(map[uint64][]byte, users)
	encodeProfile := func(s *core.SPA, u uint64) ([]byte, error) {
		p, err := s.Profile(u)
		if err != nil {
			return nil, err
		}
		return sum.Encode(&p), nil
	}
	for u := 1; u <= users; u++ {
		id := uint64(u)
		if err := spa.Register(id, nil); err != nil {
			return ScheduleResult{}, fmt.Errorf("torture: seed %d: register: %w", seed, err)
		}
		if err := shadow.Register(id, nil); err != nil {
			return ScheduleResult{}, fmt.Errorf("torture: seed %d: shadow register: %w", seed, err)
		}
		de, err := encodeProfile(spa, id)
		if err != nil {
			return ScheduleResult{}, fmt.Errorf("torture: seed %d: profile: %w", seed, err)
		}
		se, err := encodeProfile(shadow, id)
		if err != nil {
			return ScheduleResult{}, fmt.Errorf("torture: seed %d: shadow profile: %w", seed, err)
		}
		if !bytes.Equal(de, se) {
			return ScheduleResult{}, fmt.Errorf("torture: seed %d: registration state diverges from shadow", seed)
		}
		snaps[0][id] = se
	}

	// expect[u] is the chain index known installed in the durable core's
	// memory; durable state may only ever be at or after it.
	expect := make([]int, users+1)
	lastTouch := make([]int, users+1)
	waveFailed := make([]bool, waves+1)
	waveUsers := make([][]uint64, waves+1)

	// matchChain finds the latest chain index >= from whose snapshot of u
	// equals enc; -1 if none.
	matchChain := func(u uint64, from, upto int, enc []byte) int {
		for i := upto; i >= from; i-- {
			if s, ok := snaps[i][u]; ok && bytes.Equal(s, enc) {
				return i
			}
		}
		return -1
	}

	res := ScheduleResult{Waves: waves}
	ops.Arm()

	eventTypes := []lifelog.EventType{lifelog.EventClick, lifelog.EventPageView, lifelog.EventSearch}
	for j := 1; j <= waves; j++ {
		now := clock.Epoch.Add(time.Duration(j) * time.Hour)
		tc.Set(now)
		sc.Set(now)

		// Build the wave: 1-3 batches over disjoint user sets, 1-3 events
		// per user with per-user ascending timestamps inside the session
		// window, so the merged stream is always well-formed and any error
		// the durable core reports is a fault, never ErrBadStream.
		nb := 1 + r.Intn(3)
		perm := r.Perm(users)
		pick := 0
		batches := make([][]lifelog.Event, 0, nb)
		perBatch := make([][]uint64, 0, nb)
		var touched []uint64
		for b := 0; b < nb; b++ {
			nu := 1 + r.Intn(4)
			var evs []lifelog.Event
			var ids []uint64
			for k := 0; k < nu && pick < len(perm); k++ {
				id := uint64(perm[pick] + 1)
				pick++
				ids = append(ids, id)
				touched = append(touched, id)
				base := now.Add(-40 * time.Minute)
				ne := 1 + r.Intn(3)
				for e := 0; e < ne; e++ {
					evs = append(evs, lifelog.Event{
						UserID: id,
						Time:   base.Add(time.Duration(e) * 25 * time.Second),
						Type:   eventTypes[r.Intn(len(eventTypes))],
						Action: uint32(r.Intn(lifelog.ActionUniverse)),
						Value:  float32(r.Intn(50)),
					})
				}
			}
			if len(evs) > 0 {
				batches = append(batches, evs)
				perBatch = append(perBatch, ids)
			}
		}
		// This draw once chose between two commit shapes that are now one;
		// it stays so recorded seeds replay the same schedules.
		_ = r.Bool(0.5)
		reopen := r.Bool(0.18)
		graceful := r.Bool(0.5)

		// The fault-free shadow defines this wave's expected states.
		for b, out := range shadow.PrepareMulti(batches).Commit() {
			if out.Err != nil || out.SkippedUnknown != 0 {
				return res, fmt.Errorf("torture: seed %d: shadow wave %d batch %d: %+v", seed, j, b, out)
			}
		}
		snaps[j] = make(map[uint64][]byte, len(touched))
		for _, u := range touched {
			enc, err := encodeProfile(shadow, u)
			if err != nil {
				return res, fmt.Errorf("torture: seed %d: shadow profile: %w", seed, err)
			}
			snaps[j][u] = enc
			lastTouch[u] = j
		}
		waveUsers[j] = touched

		for b, out := range spa.PrepareMulti(batches).Commit() {
			if out.Err == nil {
				for _, u := range perBatch[b] {
					expect[u] = j
				}
			} else {
				waveFailed[j] = true
			}
		}

		// Live memory check: every touched user shows either the last
		// installed state or this wave's state (a shard group that applied
		// even though another group failed the batch). Anything else is
		// memory diverging from the submitted chain.
		for _, u := range touched {
			enc, err := encodeProfile(spa, u)
			if err != nil {
				return res, mkViolation("wave %d: user %d unreadable in memory: %v", j, u, err)
			}
			switch {
			case bytes.Equal(enc, snaps[expect[u]][u]):
			case bytes.Equal(enc, snaps[j][u]):
				expect[u] = j
			default:
				return res, mkViolation("wave %d: user %d memory state off the wave chain (expect >= %d)", j, u, expect[u])
			}
		}

		if !reopen {
			continue
		}
		res.Reopens++
		if graceful {
			// Planned restart: Close flushes what it can (possibly hitting
			// scheduled faults — fine), and stops the compactor, so the
			// directory can be reopened in place.
			_ = spa.Close()
			ops.Revive()
		} else {
			// Crash: fence the abandoned instance off the directory (its
			// background compactor keeps running), give in-flight ops a
			// moment to land, and hand the successor a forked scheduler
			// that carries the remaining fault plan with the device back.
			ops.Kill()
			time.Sleep(10 * time.Millisecond)
			ops = ops.Fork()
			opts.Store.FileOps = ops
		}
		spa, err = core.New(opts)
		if err != nil {
			return res, mkViolation("wave %d: reopen failed: %v", j, err)
		}
		for u := 1; u <= users; u++ {
			id := uint64(u)
			enc, err := encodeProfile(spa, id)
			if err != nil {
				return res, mkViolation("wave %d: user %d lost across reopen: %v", j, id, err)
			}
			m := matchChain(id, expect[id], j, enc)
			if m < 0 {
				return res, mkViolation("wave %d: user %d recovered state off the wave chain (expect >= %d)", j, id, expect[id])
			}
			expect[id] = m
		}
	}

	// Final crash: fence the running instance and verify the directory the
	// way a restarted process would see it.
	ops.Kill()
	time.Sleep(10 * time.Millisecond)
	res.Faults = len(ops.Fired())
	if tamperAfterRun != nil {
		tamperAfterRun(dir)
	}

	final, err := verifyDir(dir, users, waves, snaps, expect, lastTouch, mkViolation)
	if err != nil {
		return res, err
	}

	// Shard-batch atomicity: for every failed wave, users of the same
	// shard whose final state is still that wave's verdict must agree on
	// whether it applied. Only users untouched after the wave vote (later
	// durable waves mask the verdict), and only when their chain states
	// are pairwise distinct (ambiguous matches abstain).
	mask := uint64(shards - 1)
	for j := 1; j <= waves; j++ {
		if !waveFailed[j] {
			continue
		}
		votes := make(map[uint64][]uint64) // shard -> voters
		for _, u := range waveUsers[j] {
			if lastTouch[u] != j {
				continue
			}
			if ambiguousAt(snaps, u, j) {
				continue
			}
			s := shardIndex(u, mask)
			votes[s] = append(votes[s], u)
		}
		for s, members := range votes {
			applied, notApplied := 0, 0
			for _, u := range members {
				if final[u] == j {
					applied++
				} else {
					notApplied++
				}
			}
			if applied > 0 && notApplied > 0 {
				return res, mkViolation("wave %d shard %d: %d users applied, %d users not — shard batch split", j, s, applied, notApplied)
			}
		}
	}
	return res, nil
}

// ambiguousAt reports whether u's wave-j snapshot collides with another
// state on u's chain, which would make "did wave j apply" unanswerable.
func ambiguousAt(snaps []map[uint64][]byte, u uint64, j int) bool {
	sj, ok := snaps[j][u]
	if !ok {
		return true
	}
	for i := range snaps {
		if i == j {
			continue
		}
		if s, ok := snaps[i][u]; ok && bytes.Equal(s, sj) {
			return true
		}
	}
	return false
}

// shardIndex mirrors the core's fixed partition mixer (core/shard.go) so
// the harness can group a wave's users the way the commit path did.
func shardIndex(userID, mask uint64) uint64 {
	h := userID
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h & mask
}

// verifyDir opens the post-crash directory with clean file ops and checks
// durability invariants: chain membership per user, bloom/index
// consistency, and idempotent replay across a reopen with a forced
// compaction in between. It returns each user's matched chain index.
func verifyDir(dir string, users, waves int, snaps []map[uint64][]byte, expect []int, lastTouch []int,
	mkViolation func(string, ...any) *Violation) (map[uint64]int, error) {

	scanAll := func(db *store.DB) (map[string][]byte, error) {
		m := make(map[string][]byte)
		err := db.Scan(nil, nil, func(k, v []byte) bool {
			m[string(k)] = append([]byte(nil), v...)
			return true
		})
		return m, err
	}

	db, err := store.Open(dir, store.Options{DisableAutoCompaction: true})
	if err != nil {
		return nil, mkViolation("final reopen failed: %v", err)
	}
	m1, err := scanAll(db)
	if err != nil {
		db.Close()
		return nil, mkViolation("final scan failed: %v", err)
	}
	// Bloom/index consistency: every scanned key point-reads identically.
	for k, v := range m1 {
		got, err := db.Get([]byte(k))
		if err != nil {
			db.Close()
			return nil, mkViolation("key %q scanned but Get failed: %v", k, err)
		}
		if !bytes.Equal(got, v) {
			db.Close()
			return nil, mkViolation("key %q: Get disagrees with Scan", k)
		}
		if ok, err := db.Has([]byte(k)); err != nil || !ok {
			db.Close()
			return nil, mkViolation("key %q: Has=%v err=%v after Scan saw it", k, ok, err)
		}
	}
	if err := db.Close(); err != nil {
		return nil, mkViolation("final close failed: %v", err)
	}

	// Idempotent replay: a second open (plus a forced full compaction)
	// observes the identical key/value state.
	db2, err := store.Open(dir, store.Options{DisableAutoCompaction: true})
	if err != nil {
		return nil, mkViolation("second reopen failed: %v", err)
	}
	m2, err := scanAll(db2)
	if err == nil {
		if cerr := db2.Compact(); cerr != nil {
			err = fmt.Errorf("forced compaction: %w", cerr)
		}
	}
	var m3 map[string][]byte
	if err == nil {
		m3, err = scanAll(db2)
	}
	db2.Close()
	if err != nil {
		return nil, mkViolation("second-pass verification failed: %v", err)
	}
	for _, pair := range []struct {
		name string
		m    map[string][]byte
	}{{"reopen", m2}, {"reopen+compact", m3}} {
		if len(pair.m) != len(m1) {
			return nil, mkViolation("%s changed key count: %d != %d", pair.name, len(pair.m), len(m1))
		}
		for k, v := range m1 {
			if !bytes.Equal(pair.m[k], v) {
				return nil, mkViolation("%s changed key %q", pair.name, k)
			}
		}
	}

	// Chain membership: every user's durable profile is a chain state at
	// or after the last state known installed in memory.
	final := make(map[uint64]int, users)
	for u := 1; u <= users; u++ {
		id := uint64(u)
		raw, ok := m1[string(sum.Key(id))]
		if !ok {
			return nil, mkViolation("user %d missing from durable state", id)
		}
		matched := -1
		for i := waves; i >= expect[id]; i-- {
			if s, ok := snaps[i][id]; ok && bytes.Equal(s, raw) {
				matched = i
				break
			}
		}
		if matched < 0 {
			return nil, mkViolation("user %d durable state off the wave chain (expect >= %d, last touch %d)",
				id, expect[id], lastTouch[id])
		}
		final[id] = matched
	}
	return final, nil
}
