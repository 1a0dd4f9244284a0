package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/sum"
)

// The replication convergence invariant (ISSUE 9): for any acked leader wave
// prefix, a follower that has applied through that LSN answers every
// snapshot read API identically — profiles, sensibilities, recommendations,
// propensity, select-top — including across a leader restart and a follower
// that bootstrapped from a segment snapshot instead of the full log.

// replTestOpts builds leader/follower options over dir. Both sides share a
// simulated clock so profile timestamps are deterministic.
func replTestOpts(dir string, clk clock.Clock, st store.Options) Options {
	return Options{DataDir: dir, Store: st, Shards: 4, Clock: clk}
}

// ingestWave pushes one prepared+committed wave (the pipelined path, which
// is what attaches the interaction-event annotation to the log record).
func ingestWave(t *testing.T, s *SPA, batches [][]lifelog.Event) {
	t.Helper()
	pm := s.PrepareMulti(batches)
	for _, out := range pm.Commit() {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
}

// driftTail applies every leader record the follower is missing.
func driftTail(t *testing.T, leader, follower *SPA) {
	t.Helper()
	leaderLSN, _ := leader.AppliedLSN()
	followerLSN, _ := follower.AppliedLSN()
	if followerLSN >= leaderLSN {
		return
	}
	tail, err := leader.TailLog(followerLSN + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for followerLSN < leaderLSN {
		rec, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.ApplyReplicatedWave(rec.LSN, rec.Annotation, rec.Entries); err != nil {
			t.Fatal(err)
		}
		followerLSN = rec.LSN
	}
}

// assertReadConvergence checks every snapshot read API agrees between the
// two instances for the given users.
func assertReadConvergence(t *testing.T, leader, follower *SPA, users []uint64) {
	t.Helper()
	llsn, _ := leader.AppliedLSN()
	flsn, _ := follower.AppliedLSN()
	if llsn != flsn {
		t.Fatalf("applied LSNs diverge: leader %d, follower %d", llsn, flsn)
	}
	if lu, fu := leader.Users(), follower.Users(); lu != fu {
		t.Fatalf("user counts diverge: leader %d, follower %d", lu, fu)
	}
	for _, id := range users {
		lp, lerr := leader.Profile(id)
		fp, ferr := follower.Profile(id)
		if (lerr == nil) != (ferr == nil) {
			t.Fatalf("user %d: profile errs diverge: %v vs %v", id, lerr, ferr)
		}
		if lerr != nil {
			continue
		}
		if !reflect.DeepEqual(lp, fp) {
			t.Fatalf("user %d: profiles diverge:\nleader   %+v\nfollower %+v", id, lp, fp)
		}
		ls, err := leader.Sensibilities(id)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := follower.Sensibilities(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ls, fs) {
			t.Fatalf("user %d: sensibilities diverge", id)
		}
		lr, lerr := leader.RecommendActions(id, 5)
		fr, ferr := follower.RecommendActions(id, 5)
		if (lerr == nil) != (ferr == nil) {
			t.Fatalf("user %d: recommend errs diverge: %v vs %v", id, lerr, ferr)
		}
		if !reflect.DeepEqual(lr, fr) {
			t.Fatalf("user %d: recommendations diverge:\nleader   %+v\nfollower %+v", id, lr, fr)
		}
	}

	// Propensity trains deterministically from identical inputs, so with
	// convergent profiles the scores and the selection ranking must match.
	var features [][]float64
	var labels []bool
	for i, id := range users {
		fv, err := leader.FeatureVector(id)
		if err != nil {
			continue
		}
		features = append(features, fv)
		labels = append(labels, i%2 == 0)
	}
	if err := leader.TrainPropensity(features, labels); err != nil {
		t.Fatal(err)
	}
	if err := follower.TrainPropensity(features, labels); err != nil {
		t.Fatal(err)
	}
	for _, id := range users {
		lp, lerr := leader.Propensity(id)
		fp, ferr := follower.Propensity(id)
		if (lerr == nil) != (ferr == nil) {
			t.Fatalf("user %d: propensity errs diverge: %v vs %v", id, lerr, ferr)
		}
		if lp != fp {
			t.Fatalf("user %d: propensity diverges: %v vs %v", id, lp, fp)
		}
	}
	ltop, lerr := leader.SelectTop(len(users))
	ftop, ferr := follower.SelectTop(len(users))
	if (lerr == nil) != (ferr == nil) {
		t.Fatalf("select-top errs diverge: %v vs %v", lerr, ferr)
	}
	if !reflect.DeepEqual(ltop, ftop) {
		t.Fatalf("select-top diverges:\nleader   %v\nfollower %v", ltop, ftop)
	}
}

func replUsers(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return ids
}

func TestFollowerConvergesFromFullTail(t *testing.T) {
	clk := clock.NewSimulated(t0)
	leader, err := New(replTestOpts(t.TempDir(), clk, store.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	users := replUsers(20)
	for _, id := range users {
		if err := leader.Register(id, []float64{float64(id), 1}); err != nil {
			t.Fatal(err)
		}
	}
	base := t0.Add(-12 * time.Hour)
	for wave := 0; wave < 5; wave++ {
		var b1, b2 []lifelog.Event
		for i, id := range users {
			at := base.Add(time.Duration(wave*100+i) * time.Second)
			ev := lifelog.Event{UserID: id, Time: at, Type: lifelog.EventClick,
				Action: uint32((int(id)*3 + wave) % lifelog.ActionUniverse)}
			if i%2 == 0 {
				b1 = append(b1, ev)
			} else {
				ev.Type = lifelog.EventEnroll
				b2 = append(b2, ev)
			}
		}
		ingestWave(t, leader, [][]lifelog.Event{b1, b2})
	}
	// Single-put write paths (EIT answers, reinforcement) replicate too.
	if err := leader.Reward(users[0], []emotion.Attribute{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Punish(users[1], []emotion.Attribute{2}); err != nil {
		t.Fatal(err)
	}

	follower, err := New(replTestOpts(t.TempDir(), clk, store.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	driftTail(t, leader, follower)
	assertReadConvergence(t, leader, follower, users)

	// More leader traffic, another catch-up round: convergence holds at
	// every acked prefix, not just the first.
	var more []lifelog.Event
	for _, id := range users[:10] {
		more = append(more, lifelog.Event{UserID: id, Time: base.Add(time.Hour),
			Type: lifelog.EventInfoRequest, Action: uint32(int(id) % lifelog.ActionUniverse)})
	}
	ingestWave(t, leader, [][]lifelog.Event{more})
	driftTail(t, leader, follower)
	assertReadConvergence(t, leader, follower, users)
}

func TestFollowerConvergesAcrossCrashAndSnapshotCatchup(t *testing.T) {
	clk := clock.NewSimulated(t0)
	leaderDir := t.TempDir()
	// A tiny memtable seals the WAL constantly and a 1-byte retention budget
	// prunes everything but the newest sealed file — forcing the follower
	// onto the snapshot path.
	stOpts := store.Options{MemtableBytes: 2 << 10, LogRetainBytes: 1}
	leader, err := New(replTestOpts(leaderDir, clk, stOpts))
	if err != nil {
		t.Fatal(err)
	}
	users := replUsers(16)
	for _, id := range users {
		if err := leader.Register(id, []float64{float64(id)}); err != nil {
			t.Fatal(err)
		}
	}
	base := t0.Add(-12 * time.Hour)
	for wave := 0; wave < 6; wave++ {
		var evs []lifelog.Event
		for i, id := range users {
			evs = append(evs, lifelog.Event{UserID: id, Time: base.Add(time.Duration(wave*100+i) * time.Second),
				Type: lifelog.EventClick, Action: uint32((int(id) + wave) % lifelog.ActionUniverse)})
		}
		ingestWave(t, leader, [][]lifelog.Event{evs})
	}
	// Leader "crash": close and reopen on the same dir. The reopened leader
	// recovers from its own log — the same bytes it ships.
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	// The reopened leader keeps the pruned history (floor > 1) but gets a
	// normal memtable, so the post-snapshot records the follower will tail
	// stay retained instead of being pruned out from under it.
	stOpts2 := store.Options{LogRetainBytes: 1}
	leader, err = New(replTestOpts(leaderDir, clk, stOpts2))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()

	// Retention has pruned the log head: a full tail is impossible and the
	// follower must bootstrap from a snapshot.
	if _, err := leader.TailLog(1); !errors.Is(err, store.ErrLogCompacted) {
		t.Fatalf("TailLog(1) = %v, want ErrLogCompacted", err)
	}
	pairs, snapLSN, err := leader.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Post-snapshot traffic, shipped through the tail.
	for wave := 0; wave < 3; wave++ {
		var evs []lifelog.Event
		for i, id := range users {
			evs = append(evs, lifelog.Event{UserID: id, Time: base.Add(time.Duration(1000+wave*100+i) * time.Second),
				Type: lifelog.EventEnroll, Action: uint32((int(id)*2 + wave) % lifelog.ActionUniverse)})
		}
		ingestWave(t, leader, [][]lifelog.Event{evs})
	}

	// Follower bootstrap: restore the snapshot at the store level, then open
	// the core over the restored state — exactly what spad -follow does.
	followerDir := t.TempDir()
	fdb, err := store.Open(followerDir, stOpts2)
	if err != nil {
		t.Fatal(err)
	}
	rp := make([]store.LogEntry, len(pairs))
	copy(rp, pairs)
	if err := fdb.RestoreSnapshot(rp, snapLSN); err != nil {
		t.Fatal(err)
	}
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}
	follower, err := New(replTestOpts(followerDir, clk, stOpts2))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if flsn, _ := follower.AppliedLSN(); flsn != snapLSN {
		t.Fatalf("bootstrapped follower AppliedLSN = %d, want %d", flsn, snapLSN)
	}
	driftTail(t, leader, follower)

	// Both sides' CF state warmed from the same post-restart events (the
	// reopened leader is recommendation-cold by design, and the snapshot
	// hands the follower the same cold start), so the full read surface —
	// profiles, recommendations, propensity, select-top — must agree.
	assertReadConvergence(t, leader, follower, users)
}

func TestApplyReplicatedWaveRejectsGaps(t *testing.T) {
	clk := clock.NewSimulated(t0)
	follower, err := New(replTestOpts(t.TempDir(), clk, store.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	entry := []store.LogEntry{{Key: []byte("k"), Value: []byte("v")}}
	if err := follower.ApplyReplicatedWave(2, nil, entry); err == nil {
		t.Fatal("gap accepted")
	}
	if err := follower.ApplyReplicatedWave(1, []byte{0x7f, 0x01}, entry); err == nil {
		t.Fatal("bad annotation version accepted")
	}
	// A run with a gap in the middle is refused whole: no record of it is
	// durable or visible.
	put := func(lsn, id uint64) store.LogRecord {
		p := sum.NewProfile(id, t0)
		return store.LogRecord{LSN: lsn, Entries: []store.LogEntry{{Key: sum.Key(id), Value: sum.Encode(p)}}}
	}
	if err := follower.ApplyReplicatedWaves([]store.LogRecord{put(1, 1), put(2, 2), put(4, 4)}); err == nil {
		t.Fatal("run with a gap accepted")
	}
	if lsn, _ := follower.AppliedLSN(); lsn != 0 || follower.Users() != 0 {
		t.Fatalf("refused run left applied lsn %d, %d users", lsn, follower.Users())
	}
	if _, err := follower.Profile(1); !errors.Is(err, ErrNoProfile) {
		t.Fatalf("refused run's first record visible: %v", err)
	}
	if err := follower.ApplyReplicatedWaves([]store.LogRecord{put(1, 1), put(2, 2), put(3, 1)}); err != nil {
		t.Fatal(err)
	}
	if lsn, _ := follower.AppliedLSN(); lsn != 3 || follower.Users() != 2 {
		t.Fatalf("contiguous run left applied lsn %d, %d users", lsn, follower.Users())
	}
}

func TestWaveAnnotationRoundTrip(t *testing.T) {
	in := []taggedEvent{
		{Event: lifelog.Event{UserID: 7, Type: lifelog.EventClick, Action: 3}},
		{Event: lifelog.Event{UserID: 9, Type: lifelog.EventEnroll, Action: 11}},
	}
	out, err := decodeWaveAnnotation(encodeWaveAnnotation(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d events", len(out))
	}
	for i := range in {
		if out[i].UserID != in[i].UserID || out[i].Type != in[i].Type || out[i].Action != in[i].Action {
			t.Fatalf("event %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	if evs, err := decodeWaveAnnotation(nil); err != nil || evs != nil {
		t.Fatalf("empty annotation = %v, %v", evs, err)
	}
	if _, err := decodeWaveAnnotation([]byte{0x02, 0x00}); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// FuzzWaveAnnotation feeds the annotation decoder the peer bytes a shipped
// repl frame can carry: it must never panic, waveEventCount must size the
// run's event buffer exactly for every blob that decodes, and a decoded
// blob must re-encode (minimally) to one that decodes to the same events
// and re-encodes to the same bytes.
func FuzzWaveAnnotation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{waveAnnotationVersion})
	f.Add([]byte{waveAnnotationVersion, 0x00})
	f.Add([]byte{0x02, 0x00})
	f.Add(encodeWaveAnnotation([]taggedEvent{
		{Event: lifelog.Event{UserID: 7, Type: lifelog.EventClick, Action: 3}},
		{Event: lifelog.Event{UserID: 1 << 40, Type: lifelog.EventEnroll, Action: 1 << 31}},
	}))
	f.Add([]byte{waveAnnotationVersion, 0x01, 0x87, 0x00, 0x01, 0x05}) // overlong user id
	f.Add([]byte{waveAnnotationVersion, 0x05, 0x01, 0x01, 0x01})       // count past the bytes
	f.Add([]byte{waveAnnotationVersion, 0x01, 0x01, 0x01, 0x01, 0xff}) // trailing byte
	f.Fuzz(func(t *testing.T, blob []byte) {
		events, err := decodeWaveAnnotation(blob)
		if err != nil {
			return
		}
		if n := waveEventCount(blob); n != len(events) {
			t.Fatalf("waveEventCount = %d, decoded %d events", n, len(events))
		}
		enc := encodeWaveAnnotation(events)
		again, err := decodeWaveAnnotation(enc)
		if err != nil {
			t.Fatalf("re-encoded annotation does not decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed the event count: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("round trip changed event %d: %+v -> %+v", i, events[i], again[i])
			}
		}
		if re := encodeWaveAnnotation(again); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding is not stable: %x -> %x", enc, re)
		}
	})
}

// TestShippedProfileOwnership is TestPublishedProfileOwnership on a
// follower: each shipped profile decodes into an allocation of its own
// (the Profile and the floats its vectors are carved from), so a profile
// held after ApplyReplicatedWaves keeps its bytes while later runs — for
// its own user and for others, several records per run — install new
// ones.
func TestShippedProfileOwnership(t *testing.T) {
	clk := clock.NewSimulated(t0)
	opts := func() Options {
		return Options{DataDir: t.TempDir(), Store: store.Options{DisableAutoCompaction: true}, Shards: 16, Clock: clk}
	}
	leader, err := New(opts())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := New(opts())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	users := replUsers(24)
	for _, id := range users {
		if err := leader.Register(id, []float64{float64(id), 2}); err != nil {
			t.Fatal(err)
		}
	}
	minute := 0
	wave := func(ids ...uint64) {
		t.Helper()
		var frame []lifelog.Event
		for _, id := range ids {
			for e := 0; e < 3; e++ {
				frame = append(frame, lifelog.Event{UserID: id, Time: t0.Add(time.Duration(minute-10000) * time.Minute),
					Type: lifelog.EventClick, Action: uint32((int(id)*11 + minute) % lifelog.ActionUniverse)})
				minute++
			}
		}
		ingestWave(t, leader, [][]lifelog.Event{frame})
	}
	// ship applies everything the follower lacks as one run.
	ship := func() {
		t.Helper()
		from, _ := follower.AppliedLSN()
		to, _ := leader.AppliedLSN()
		tail, err := leader.TailLog(from + 1)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		var recs []store.LogRecord
		for lsn := from; lsn < to; {
			rec, err := tail.Next()
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
			lsn = rec.LSN
		}
		if err := follower.ApplyReplicatedWaves(recs); err != nil {
			t.Fatal(err)
		}
	}
	type held struct {
		p   *sum.Profile
		enc []byte
	}
	hold := func(id uint64) held {
		p, err := follower.viewProfile(id)
		if err != nil {
			t.Fatal(err)
		}
		return held{p, sum.Encode(p)}
	}
	check := func(when string, hs map[uint64]held) {
		t.Helper()
		for id, h := range hs {
			if got := sum.Encode(h.p); !bytes.Equal(got, h.enc) {
				t.Fatalf("%s: user %d's held profile changed", when, id)
			}
		}
	}

	wave(1)
	wave(1, 2)
	ship()
	first := map[uint64]held{1: hold(1), 2: hold(2)}
	wave(1)
	wave(1, 2, 3)
	ship()
	if cur := hold(1); bytes.Equal(cur.enc, first[1].enc) {
		t.Fatal("user 1's later waves left its profile unchanged; the test shows nothing")
	}
	check("after a run for the same users", first)

	others := users[3:16]
	wave(others...)
	wave(users[16:]...)
	ship()
	last := map[uint64]held{}
	for _, id := range others {
		last[id] = hold(id)
	}
	wave(append([]uint64{1, 2}, others[:4]...)...)
	wave(users[16:]...)
	wave(others...)
	ship()
	check("after runs for other users", first)
	check("after runs for other users", last)
}
