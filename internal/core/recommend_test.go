package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cf"
	"repro/internal/clock"
	"repro/internal/emotion"
	"repro/internal/keyspace"
	"repro/internal/lifelog"
)

// ingestClicks feeds a set of (user, action) click events.
func ingestClicks(t *testing.T, s *SPA, rows map[uint64][]uint32) {
	t.Helper()
	var events []lifelog.Event
	at := t0.Add(-24 * time.Hour)
	for user, actions := range rows {
		tm := at
		for _, a := range actions {
			events = append(events, lifelog.Event{
				UserID: user, Time: tm, Type: lifelog.EventClick, Action: a,
			})
			tm = tm.Add(time.Minute)
		}
	}
	if _, _, err := s.BatchIngest(events); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendActionsCF(t *testing.T) {
	s := newSPA(t, "")
	for id := uint64(1); id <= 3; id++ {
		s.Register(id, nil)
	}
	// Users 1 and 2 share tastes; user 2 also did action 30, which user 1
	// has not seen — the canonical CF recommendation.
	ingestClicks(t, s, map[uint64][]uint32{
		1: {10, 11, 12},
		2: {10, 11, 30},
		3: {500, 501},
	})
	recs, err := s.RecommendActions(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Action != 30 {
		t.Fatalf("recommendations %v, want action 30 first", recs)
	}
	for _, r := range recs {
		if r.Action == 10 || r.Action == 11 || r.Action == 12 {
			t.Fatalf("recommended seen action %d", r.Action)
		}
	}
}

func TestRecommendActionsErrors(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, nil)
	if _, err := s.RecommendActions(1, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	// No interactions ingested yet.
	if _, err := s.RecommendActions(1, 3); err == nil {
		t.Fatal("empty interactions accepted")
	}
	ingestClicks(t, s, map[uint64][]uint32{1: {5}})
	if _, err := s.RecommendActions(99, 3); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestRecommendActionsEmotionalReweighting(t *testing.T) {
	// Tag action 100 as "stimulated" content, 200 as "frightened" content.
	s, err := New(Options{Clock: clock.NewSimulated(t0), ActionTagger: func(a uint32) []emotion.Attribute {
		switch a {
		case 100:
			return []emotion.Attribute{emotion.Stimulated}
		case 200:
			return []emotion.Attribute{emotion.Frightened}
		default:
			return nil
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for id := uint64(1); id <= 4; id++ {
		s.Register(id, nil)
	}
	// User 1's neighbors expose two candidate actions equally: 100 and 200.
	ingestClicks(t, s, map[uint64][]uint32{
		1: {10, 11},
		2: {10, 11, 100},
		3: {10, 11, 200},
	})
	// Build strong positive sensibility for Stimulated on user 1.
	for i := 0; i < 8; i++ {
		if err := s.Reward(1, []emotion.Attribute{emotion.Stimulated}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.RecommendActions(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("recs %v", recs)
	}
	if recs[0].Action != 100 {
		t.Fatalf("emotional boost did not promote action 100: %v", recs)
	}
	if recs[0].Score <= recs[1].Score {
		t.Fatalf("boost did not change scores: %v", recs)
	}
}

func TestRecommendActionsInvalidatedByNewIngest(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, nil)
	s.Register(2, nil)
	ingestClicks(t, s, map[uint64][]uint32{1: {10}, 2: {10, 20}})
	r1, err := s.RecommendActions(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1[0].Action != 20 {
		t.Fatalf("first recs %v", r1)
	}
	// New neighbor evidence arrives: action 21 becomes stronger.
	var events []lifelog.Event
	at := t0.Add(-time.Hour)
	for i := 0; i < 5; i++ {
		events = append(events, lifelog.Event{UserID: 2, Time: at, Type: lifelog.EventEnroll, Action: 21})
		at = at.Add(time.Minute)
	}
	if _, _, err := s.BatchIngest(events); err != nil {
		t.Fatal(err)
	}
	r2, err := s.RecommendActions(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2[0].Action != 21 {
		t.Fatalf("model not rebuilt after ingest: %v", r2)
	}
}

// zipfEvents draws n seeded events over users 1..users: users by
// zipf(1.07), so a few hot users build rows of hundreds of actions; actions
// half zipf-popular, half uniform; all five CF event types, search included
// (it weighs nothing). Times rise one second per event from at.
func zipfEvents(seed int64, users, n int, at time.Time) []lifelog.Event {
	r := rand.New(rand.NewSource(seed))
	zu := rand.NewZipf(r, 1.07, 1, uint64(users-1))
	za := rand.NewZipf(r, 1.07, 1, lifelog.ActionUniverse-1)
	types := []lifelog.EventType{lifelog.EventPageView, lifelog.EventClick, lifelog.EventSearch,
		lifelog.EventInfoRequest, lifelog.EventEnroll}
	evs := make([]lifelog.Event, n)
	for i := range evs {
		a := uint32(r.Intn(lifelog.ActionUniverse))
		if r.Intn(2) == 0 {
			a = uint32(za.Uint64())
		}
		evs[i] = lifelog.Event{UserID: zu.Uint64() + 1, Time: at.Add(time.Duration(i) * time.Second),
			Type: types[r.Intn(len(types))], Action: a}
	}
	return evs
}

// referenceKNN is the frozen cf.KNN (k = 25) over the weighted events of the
// users keep admits.
func referenceKNN(t *testing.T, events []lifelog.Event, keep func(uint64) bool) *cf.KNN {
	t.Helper()
	m := cf.NewInteractions(lifelog.ActionUniverse)
	for _, e := range events {
		if w := interactionWeight(e.Type); w > 0 && keep(e.UserID) {
			if err := m.Add(e.UserID, e.Action, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Freeze()
	knn, err := cf.NewKNN(m, 25)
	if err != nil {
		t.Fatal(err)
	}
	return knn
}

// assertMatchesKNN checks RecommendActions (no tagger) against the reference
// for every registered user of ids, bit for bit, at two list lengths.
func assertMatchesKNN(t *testing.T, s *SPA, knn *cf.KNN, ids []uint64) {
	t.Helper()
	checked := 0
	for _, id := range ids {
		// The top n of a longer reference list is the reference's top n.
		want, err := knn.RecommendTopN(id, 120)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{5, 40} {
			got, err := s.RecommendActions(id, n)
			if errors.Is(err, ErrNoProfile) {
				continue
			}
			if err != nil {
				t.Fatalf("user %d: %v", id, err)
			}
			if w := want[:min(n, len(want))]; !slices.EqualFunc(got, w, func(a, b cf.Recommendation) bool {
				return a.Action == b.Action && math.Float64bits(a.Score) == math.Float64bits(b.Score)
			}) {
				t.Fatalf("user %d, n %d:\ngot  %v\nwant %v", id, n, got, w)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no user checked")
	}
}

// TestRecommendMatchesFrozenKNN: ranking straight from the snapshot rows
// answers exactly what a frozen cf.KNN built from the same weighted events
// does — on the leader, on a follower with another shard count fed from the
// leader's log, and after a slot drop.
func TestRecommendMatchesFrozenKNN(t *testing.T) {
	const users, rowless = 200, 20
	clk := clock.NewSimulated(t0)
	leader, err := New(Options{DataDir: t.TempDir(), Shards: 4, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	// Ids above users draw no events: registered, but without a row.
	ids := replUsers(users + rowless)
	for _, id := range ids {
		if err := leader.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	events := zipfEvents(7, users, 6000, t0.Add(-48*time.Hour))
	hot := map[uint32]bool{}
	for _, e := range events {
		if e.UserID == 1 && interactionWeight(e.Type) > 0 {
			hot[e.Action] = true
		}
	}
	if len(hot) < 200 {
		t.Fatalf("hottest user's row has %d actions, want hundreds", len(hot))
	}
	for lo := 0; lo < len(events); lo += 500 {
		ingestWave(t, leader, [][]lifelog.Event{events[lo:min(lo+500, len(events))]})
	}
	knn := referenceKNN(t, events, func(uint64) bool { return true })
	assertMatchesKNN(t, leader, knn, ids)

	follower, err := New(Options{DataDir: t.TempDir(), Shards: 16, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	driftTail(t, leader, follower)
	assertMatchesKNN(t, follower, knn, ids)

	var drop keyspace.SlotSet
	for slot := 0; slot < keyspace.NumSlots; slot += 3 {
		drop.Add(slot)
	}
	if leader.DropSlotUsers(&drop) == 0 {
		t.Fatal("slot drop removed nobody")
	}
	kept := func(id uint64) bool { return !drop.Has(keyspace.Partition(id)) }
	assertMatchesKNN(t, leader, referenceKNN(t, events, kept), ids)
}

// TestRecommendReadsItsWrite: once BatchIngest returns on one goroutine, a
// RecommendActions on another reflects it, while concurrent readers keep
// missing the cache.
func TestRecommendReadsItsWrite(t *testing.T) {
	s := newSPA(t, "")
	for id := uint64(1); id <= 8; id++ {
		if err := s.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	ingestClicks(t, s, map[uint64][]uint32{1: {10}, 2: {10}, 3: {11}, 4: {10, 11}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := uint64(3); w <= 5; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.RecommendActions(w, 3)
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	written := make(chan uint32)
	go func() {
		defer close(written)
		at := t0.Add(-time.Hour)
		for a := uint32(100); a < 150; a++ {
			ev := lifelog.Event{UserID: 2, Time: at.Add(time.Duration(a) * time.Second), Type: lifelog.EventEnroll, Action: a}
			if _, _, err := s.BatchIngest([]lifelog.Event{ev}); err != nil {
				t.Error(err)
				return
			}
			select {
			case written <- a:
			case <-stop:
				return
			}
		}
	}()
	for a := range written {
		recs, err := s.RecommendActions(1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(recs, func(r cf.Recommendation) bool { return r.Action == a }) {
			t.Fatalf("action %d acked but missing from %v", a, recs)
		}
	}
}

// TestRecommendCacheIgnoresShardCount: the recommend cache's capacity is a
// number of entries, not a number per shard — 512 warmed rankings all hit
// on a second pass whatever the shard count.
func TestRecommendCacheIgnoresShardCount(t *testing.T) {
	const users = 512
	events := zipfEvents(1, users, users*4, t0.Add(-100*time.Hour))
	for _, shards := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := New(Options{Shards: shards, Clock: clock.NewSimulated(t0)})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for id := uint64(1); id <= users; id++ {
				if err := s.Register(id, nil); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := s.BatchIngest(events); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				before := s.ReadStats().ReadCacheHits
				for id := uint64(1); id <= users; id++ {
					if _, err := s.RecommendActions(id, 5); err != nil {
						t.Fatal(err)
					}
				}
				if pass == 1 {
					if hits := s.ReadStats().ReadCacheHits - before; hits != users {
						t.Fatalf("second pass: %d hits, want %d", hits, users)
					}
				}
			}
		})
	}
}

// sessionMixEvents is bench's session_mix matrix after a long window:
// perUser events per user, then sessions of 4-24 events for users drawn by
// zipf(1.07) (user 1 the hottest). Actions follow zipf(1.05); 70 % clicks,
// 20 % ratings (weightless), 10 % enrolments. Times rise one second per
// event from at.
func sessionMixEvents(seed int64, users, perUser, sessions int, at time.Time) []lifelog.Event {
	r := rand.New(rand.NewSource(seed))
	zu := rand.NewZipf(r, 1.07, 1, uint64(users-1))
	za := rand.NewZipf(r, 1.05, 1, lifelog.ActionUniverse-1)
	var evs []lifelog.Event
	add := func(u uint64) {
		typ := lifelog.EventClick
		switch x := r.Float64(); {
		case x >= 0.9:
			typ = lifelog.EventEnroll
		case x >= 0.7:
			typ = lifelog.EventRating
		}
		evs = append(evs, lifelog.Event{UserID: u, Time: at.Add(time.Duration(len(evs)) * time.Second),
			Type: typ, Action: uint32(za.Uint64())})
	}
	for u := uint64(1); u <= uint64(users); u++ {
		for range perUser {
			add(u)
		}
	}
	for range sessions {
		u := zu.Uint64() + 1
		for range 4 + r.Intn(21) {
			add(u)
		}
	}
	return evs
}

// BenchmarkRecommendAfterWrite is the read that follows a write: each op, a
// zipf-hot user ingests 12 events, then asks for 10 recommendations.
//
// "aged" is session_mix's matrix after 16,384 sessions (sessionMixEvents):
// hot rows hold hundreds of actions. "spread" is the same matrix, but each
// op's wave also clicks once for one random user of every shard, so no
// ranking finds a shard snapshot an earlier ranking saw — the path of a
// follower that reads once per shipped run.
func BenchmarkRecommendAfterWrite(b *testing.B) {
	for _, shape := range []struct {
		name                    string
		users, events, sessions int
		spread                  bool
	}{
		{"users=8192/events=8", 8192, 8, 0, false},
		{"users=4096/events=64", 4096, 64, 0, false},
		{"aged", 8192, 8, 16384, false},
		{"spread", 8192, 8, 16384, true},
	} {
		b.Run(shape.name, func(b *testing.B) {
			s, err := New(Options{Clock: clock.NewSimulated(t0)})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			byShard := make([][]uint64, len(s.shards))
			for id := uint64(1); id <= uint64(shape.users); id++ {
				if err := s.Register(id, nil); err != nil {
					b.Fatal(err)
				}
				i, _ := s.place(id)
				byShard[i] = append(byShard[i], id)
			}
			at := t0.Add(-200 * time.Hour)
			var evs []lifelog.Event
			if shape.sessions > 0 {
				evs = sessionMixEvents(1, shape.users, shape.events, shape.sessions, at)
			} else {
				evs = zipfEvents(1, shape.users, shape.users*shape.events, at)
			}
			for lo := 0; lo < len(evs); lo += 4096 {
				if _, _, err := s.BatchIngest(evs[lo:min(lo+4096, len(evs))]); err != nil {
					b.Fatal(err)
				}
			}
			r := rand.New(rand.NewSource(2))
			zu := rand.NewZipf(r, 1.07, 1, uint64(shape.users-1))
			next := at.Add(time.Duration(len(evs)) * time.Second)
			op := make([]lifelog.Event, 12, 12+len(byShard))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := zu.Uint64() + 1
				op = op[:12]
				for j := range op {
					op[j] = lifelog.Event{UserID: u, Time: next, Type: lifelog.EventClick,
						Action: uint32(r.Intn(lifelog.ActionUniverse))}
					next = next.Add(time.Second)
				}
				if shape.spread {
					for _, ids := range byShard {
						op = append(op, lifelog.Event{UserID: ids[r.Intn(len(ids))], Time: next,
							Type: lifelog.EventClick, Action: uint32(r.Intn(lifelog.ActionUniverse))})
						next = next.Add(time.Second)
					}
				}
				if _, _, err := s.BatchIngest(op); err != nil {
					b.Fatal(err)
				}
				if _, err := s.RecommendActions(u, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecommendActions: "hit" cycles 200 users, all cached after the
// first pass; "miss" cycles a key set 8× the cache's capacity, so every
// read ranks and inserts.
func BenchmarkRecommendActions(b *testing.B) {
	for _, bc := range []struct {
		name  string
		users int
	}{{"hit", 200}, {"miss", 8 * recStripes * recStripeCap}} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := New(Options{Clock: clock.NewSimulated(t0)})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var events []lifelog.Event
			at := t0.Add(-100 * time.Hour)
			for id := uint64(1); id <= uint64(bc.users); id++ {
				s.Register(id, nil)
				for k := 0; k < 20; k++ {
					events = append(events, lifelog.Event{
						UserID: id, Time: at, Type: lifelog.EventClick,
						Action: uint32((int(id)*7 + k*13) % lifelog.ActionUniverse),
					})
					at = at.Add(time.Second)
				}
			}
			if _, _, err := s.BatchIngest(events); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.RecommendActions(uint64(i%bc.users+1), 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
