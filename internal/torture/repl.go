package torture

// Replication torture (DESIGN.md §9): one seed-determined schedule drives
// a faulty LEADER core and a faulty FOLLOWER core through the same
// WAL-shipping path the server uses — TailLog on the leader, grouped
// ApplyReplicatedWaves runs on the follower — with injected file faults on
// both sides, leader crashes mid-wave, and follower crashes mid-apply.
//
// The invariants under test:
//
//   - durable-prefix shipping: the follower never holds a wave the leader
//     would not itself recover. After every leader crash+reopen the
//     leader's committed position must be at or beyond the follower's —
//     if the tail ever handed out a record the leader then lost, this
//     trips;
//   - apply atomicity: a follower whose grouped apply faulted and crashed
//     recovers to a prefix of the run — at least where it stood, never
//     past the run's last record — and resumes cleanly from there;
//   - byte-equal convergence: once the follower has caught up to the
//     leader's final committed position, both stores export identical
//     snapshots and every user's profile reads byte-identically through
//     both cores.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lifelog"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/sum"
)

// replNode is one side of the replicated pair: a durable core over a
// scheduled-fault device, reopenable after crashes.
type replNode struct {
	spa  *core.SPA
	ops  *ScheduledOps
	opts core.Options
}

// crashReopen fences the node's device, forks the fault plan with the
// device revived, and reopens the core on the same directory.
func (n *replNode) crashReopen() error {
	n.ops.Kill()
	time.Sleep(10 * time.Millisecond)
	n.ops = n.ops.Fork()
	n.opts.Store.FileOps = n.ops
	spa, err := core.New(n.opts)
	if err != nil {
		return err
	}
	n.spa = spa
	return nil
}

// replFaultPlan derives a small fault plan biased toward the classes a
// replication node actually exercises every wave (WAL write/sync on the
// leader, WAL write + segment ops on the follower).
func replFaultPlan(r *rng.RNG, waves int) []Fault {
	nf := 1 + r.Intn(2)
	var plan []Fault
	for i := 0; i < nf; i++ {
		class := OpClass(r.Intn(int(numOpClasses)))
		mode := Mode(r.Intn(3))
		var nth uint64
		switch class {
		case OpWALWrite, OpWALSync:
			nth = uint64(1 + r.Intn(2*waves))
		default:
			nth = uint64(1 + r.Intn(6))
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
	return plan
}

// RunReplSchedule runs one seed-determined leader+follower schedule in
// dir. Waves ingest on the leader (which may crash mid-wave and reopen),
// then ship to the follower over the committed-log tail (whose applies
// may fault, crashing and reopening the follower); the run ends with a
// full catch-up and a byte-equality check across both stores and cores.
func RunReplSchedule(seed uint64, dir string) (ScheduleResult, error) {
	r := rng.New(seed)
	users := 8 + r.Intn(9) // 8..16
	waves := 4 + r.Intn(5) // 4..8
	shards := []int{2, 4}[r.Intn(2)]

	leaderPlan := replFaultPlan(r, waves)
	followerPlan := replFaultPlan(r, waves)

	mkViolation := func(fired []string, format string, args ...any) *Violation {
		return &Violation{
			Seed:  seed,
			Msg:   fmt.Sprintf(format, args...),
			Plan:  "leader: " + PlanString(leaderPlan) + "; follower: " + PlanString(followerPlan),
			Fired: fired,
		}
	}

	newNode := func(sub string, plan []Fault, clk clock.Clock) (*replNode, error) {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		n := &replNode{ops: NewScheduledOps(plan)}
		n.opts = core.Options{
			DataDir: d,
			Shards:  shards,
			Clock:   clk,
			Store: store.Options{
				MemtableBytes: 2 << 10,
				SyncWrites:    true,
				CompactMinRun: 2,
				FileOps:       n.ops,
			},
		}
		spa, err := core.New(n.opts)
		if err != nil {
			return nil, err
		}
		n.spa = spa
		return n, nil
	}

	lc := clock.NewSimulated(clock.Epoch)
	fc := clock.NewSimulated(clock.Epoch)
	leader, err := newNode("leader", leaderPlan, lc)
	if err != nil {
		return ScheduleResult{}, fmt.Errorf("torture: seed %d: opening leader: %w", seed, err)
	}
	follower, err := newNode("follower", followerPlan, fc)
	if err != nil {
		return ScheduleResult{}, fmt.Errorf("torture: seed %d: opening follower: %w", seed, err)
	}

	res := ScheduleResult{Waves: waves}
	allFired := func() []string {
		return append(append([]string{}, leader.ops.Fired()...), follower.ops.Fired()...)
	}

	// Registration happens before faults arm, as in RunSchedule: the
	// baseline population is part of the schedule's fixed preamble.
	for u := 1; u <= users; u++ {
		if err := leader.spa.Register(uint64(u), nil); err != nil {
			return res, fmt.Errorf("torture: seed %d: register: %w", seed, err)
		}
	}
	leader.ops.Arm()
	follower.ops.Arm()

	followerApplied := uint64(0)
	if lsn, ok := follower.spa.AppliedLSN(); ok {
		followerApplied = lsn
	}

	// pump ships the leader's committed records (followerApplied, target]
	// into the follower, in runs of 1-4 tailed records applied as one group
	// each, as the server's follower does with the waves already on the
	// wire. Run lengths come from their own stream, so a recorded seed's
	// fault plans keep their draws. A faulted apply crashes and reopens the
	// follower, re-resolving its position from recovery; the retry budget
	// bounds the worst case of a fault plan that keeps firing through
	// reopens.
	runs := rng.New(seed ^ 0x72756e73) // "runs"
	var run []store.LogRecord
	pump := func(target uint64) error {
		for retries := 0; followerApplied < target; retries++ {
			if retries > 8 {
				return fmt.Errorf("torture: seed %d: follower could not catch up to %d after %d reopens", seed, target, retries)
			}
			tail, err := leader.spa.TailLog(followerApplied + 1)
			if err != nil {
				return mkViolation(allFired(), "tailing leader log from %d: %v", followerApplied+1, err)
			}
			crashed := false
			for followerApplied < target {
				run = run[:0]
				for n := 1 + runs.Intn(4); len(run) < n; {
					rec, err := tail.Next()
					if err != nil {
						tail.Close()
						return mkViolation(allFired(), "leader tail died at %d: %v", followerApplied, err)
					}
					if rec.LSN > target {
						tail.Close()
						// The tail may only hand out records the leader has
						// durably committed; target IS the committed position.
						return mkViolation(allFired(), "tail shipped lsn %d beyond the committed position %d", rec.LSN, target)
					}
					run = append(run, rec)
					if rec.LSN == target {
						break
					}
				}
				last := run[len(run)-1].LSN
				if err := follower.spa.ApplyReplicatedWaves(run); err != nil {
					// An injected follower fault: crash, reopen, resume
					// from whatever position recovery reports. A faulted
					// run may still have committed some or all of its WAL
					// records before the fault (e.g. a later flush
					// faulted), so recovery replays a prefix of the run —
					// never past its last record, and never below the last
					// apply that returned clean.
					res.Reopens++
					if rerr := follower.crashReopen(); rerr != nil {
						tail.Close()
						return mkViolation(allFired(), "follower reopen after apply fault: %v", rerr)
					}
					recovered, ok := follower.spa.AppliedLSN()
					if !ok {
						tail.Close()
						return mkViolation(allFired(), "follower lost durability across reopen")
					}
					if recovered > last {
						tail.Close()
						return mkViolation(allFired(), "follower recovered to %d, past the run being applied (%d-%d)", recovered, run[0].LSN, last)
					}
					if recovered < followerApplied {
						tail.Close()
						return mkViolation(allFired(), "follower lost applied waves across reopen: recovered %d, had %d", recovered, followerApplied)
					}
					followerApplied = recovered
					crashed = true
					break
				}
				followerApplied = last
			}
			tail.Close()
			if !crashed {
				return nil
			}
		}
		return nil
	}

	eventTypes := []lifelog.EventType{lifelog.EventClick, lifelog.EventPageView, lifelog.EventSearch}
	for j := 1; j <= waves; j++ {
		now := clock.Epoch.Add(time.Duration(j) * time.Hour)
		lc.Set(now)
		fc.Set(now)

		// Build and ingest one wave on the leader; injected faults may fail
		// batches (fine — failed batches commit nothing) or kill the device
		// (the mid-wave crash), which forces a reopen before going on.
		nb := 1 + r.Intn(2)
		perm := r.Perm(users)
		pick := 0
		batches := make([][]lifelog.Event, 0, nb)
		for b := 0; b < nb; b++ {
			nu := 1 + r.Intn(3)
			var evs []lifelog.Event
			for k := 0; k < nu && pick < len(perm); k++ {
				id := uint64(perm[pick] + 1)
				pick++
				base := now.Add(-40 * time.Minute)
				for e, ne := 0, 1+r.Intn(3); e < ne; e++ {
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
			}
		}
		anyFailed := false
		for _, out := range leader.spa.PrepareMulti(batches).Commit() {
			if out.Err != nil {
				anyFailed = true
			}
		}

		// A scheduled leader crash — sometimes right after a failed wave
		// (the mid-wave crash case), sometimes on a healthy one.
		if anyFailed || r.Bool(0.25) {
			res.Reopens++
			if err := leader.crashReopen(); err != nil {
				return res, mkViolation(allFired(), "wave %d: leader reopen: %v", j, err)
			}
			committed, ok := leader.spa.AppliedLSN()
			if !ok {
				return res, mkViolation(allFired(), "wave %d: leader lost durability across reopen", j)
			}
			// Durable-prefix invariant: everything the tail shipped must
			// have survived the leader's crash.
			if committed < followerApplied {
				return res, mkViolation(allFired(),
					"wave %d: follower holds lsn %d but the reopened leader only recovered to %d — a shipped wave was not durable",
					j, followerApplied, committed)
			}
		}

		committed, ok := leader.spa.AppliedLSN()
		if !ok {
			return res, mkViolation(allFired(), "wave %d: leader not durable", j)
		}
		if err := pump(committed); err != nil {
			return res, err
		}
	}

	// Final catch-up already happened in the last wave's pump; converge
	// and compare. Snapshot equality covers the stores byte-for-byte…
	lp, llsn, err := leader.spa.ExportSnapshot()
	if err != nil {
		return res, mkViolation(allFired(), "leader snapshot export: %v", err)
	}
	fp, flsn, err := follower.spa.ExportSnapshot()
	if err != nil {
		return res, mkViolation(allFired(), "follower snapshot export: %v", err)
	}
	if llsn != flsn {
		return res, mkViolation(allFired(), "converged positions disagree: leader %d, follower %d", llsn, flsn)
	}
	fm := make(map[string][]byte, len(fp))
	for _, p := range fp {
		fm[string(p.Key)] = p.Value
	}
	if len(lp) != len(fp) {
		return res, mkViolation(allFired(), "converged stores disagree on key count: leader %d, follower %d", len(lp), len(fp))
	}
	for _, p := range lp {
		if got, ok := fm[string(p.Key)]; !ok || !bytes.Equal(got, p.Value) {
			return res, mkViolation(allFired(), "converged stores disagree at key %q", p.Key)
		}
	}
	// …and profile equality covers the cores' read path: the follower
	// applied every wave through the same install sequence, so each user
	// must read byte-identically on both sides.
	for u := 1; u <= users; u++ {
		id := uint64(u)
		pl, err := leader.spa.Profile(id)
		if err != nil {
			return res, mkViolation(allFired(), "user %d unreadable on leader: %v", id, err)
		}
		pf, err := follower.spa.Profile(id)
		if err != nil {
			return res, mkViolation(allFired(), "user %d unreadable on follower: %v", id, err)
		}
		if !bytes.Equal(sum.Encode(&pl), sum.Encode(&pf)) {
			return res, mkViolation(allFired(), "user %d diverges between leader and follower after convergence", id)
		}
	}

	leader.ops.Kill()
	follower.ops.Kill()
	time.Sleep(10 * time.Millisecond)
	res.Faults = len(allFired())
	return res, nil
}
