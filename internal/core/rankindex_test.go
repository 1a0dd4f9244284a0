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
	"repro/internal/lifelog"
)

// rankScript plays a byte script against a fresh SPA — waves of events and
// rankings, interleaved — and checks every ranking against a cf.KNN frozen
// from the events ingested so far, bit for bit. Several rankings between
// two waves rank the same snapshots again, so shard rank indexes are
// built; a wave then leaves them inherited with some buckets stale. A
// handful of actions and weights makes equal rows, so similarity ties are
// common. It returns the SPA's read counters and how many shard rankings
// found an inherited index with a stale bucket.
func rankScript(t *testing.T, data []byte) (ReadStats, int) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return -1
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	head := next()
	if head < 0 {
		return ReadStats{}, 0
	}
	s, err := New(Options{Shards: 1 << (head % 5), Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	users := 2 + max(next(), 0)%46
	for id := uint64(1); id <= uint64(users); id++ {
		if err := s.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	types := []lifelog.EventType{lifelog.EventPageView, lifelog.EventClick, lifelog.EventSearch,
		lifelog.EventInfoRequest, lifelog.EventEnroll}
	var events []lifelog.Event
	at := t0.Add(-100 * time.Hour)
	stale := 0
	for op := next(); op >= 0; op = next() {
		if op%3 == 0 {
			var wave []lifelog.Event
			for range 1 + op/3%6 {
				u, a, ty := next(), next(), next()
				if ty < 0 {
					break
				}
				at = at.Add(time.Second)
				wave = append(wave, lifelog.Event{UserID: uint64(1 + u%users), Time: at,
					Type: types[ty%len(types)], Action: uint32(a % 16 * 61)})
			}
			if _, _, err := s.BatchIngest(wave); err != nil {
				t.Fatal(err)
			}
			events = append(events, wave...)
			continue
		}
		u, n := next(), next()
		if n < 0 {
			break
		}
		id, n := uint64(1+u%users), 1+n%12
		stale += staleIndexes(s)
		got, err := s.RecommendActions(id, n)
		want, werr := referenceKNN(t, events, func(uint64) bool { return true }).RecommendTopN(id, n)
		if werr != nil {
			t.Fatal(werr)
		}
		if errors.Is(err, ErrNoInteractions) && len(want) == 0 {
			continue
		}
		if err != nil {
			t.Fatalf("user %d, n %d: %v", id, n, err)
		}
		if !sameRecs(got, want) {
			t.Fatalf("user %d, n %d after %d events:\ngot  %v\nwant %v", id, n, len(events), got, want)
		}
	}
	return s.ReadStats(), stale
}

// sameRecs reports whether two rankings are equal action for action and
// score for score, bit for bit.
func sameRecs(a, b []cf.Recommendation) bool {
	return slices.EqualFunc(a, b, func(x, y cf.Recommendation) bool {
		return x.Action == y.Action && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// staleIndexes counts the shards whose current snapshot carries a rank
// index that some bucket of the snapshot has moved past.
func staleIndexes(s *SPA) int {
	n := 0
	for _, sh := range s.shards {
		sn := sh.snap.Load()
		if x := sn.index.Load(); x != nil && !slices.Equal(x.built, sn.buckets) {
			n++
		}
	}
	return n
}

// FuzzRankMatchesKNN: whatever the rows, ties and interleaving of waves and
// rankings, every ranking — from built, inherited and partly stale rank
// indexes or from scans — is cf.KNN's, bit for bit.
func FuzzRankMatchesKNN(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rankScript(t, data)
	})
}

// TestRankIndexMatchesKNN plays long seeded scripts at every shard count
// rankScript picks and requires that they exercised the index: rankings
// served by it, builds, and inherited indexes with stale buckets.
func TestRankIndexMatchesKNN(t *testing.T) {
	for head := byte(0); head < 5; head++ {
		b := make([]byte, 3000)
		rand.New(rand.NewSource(int64(head) + 11)).Read(b)
		b[0], b[1] = head, 40
		st, stale := rankScript(t, b)
		if st.RankIndexHits == 0 || st.RankIndexBuilds == 0 || stale == 0 {
			t.Fatalf("shards %d: index not exercised: %+v, %d shard rankings over a stale index", 1<<head, st, stale)
		}
		t.Logf("shards %d: %+v, %d shard rankings over a stale index", 1<<head, st, stale)
	}
}

// TestRankIndexConcurrentRebuild: two readers keep ranking — and so keep
// building and CAS-ing rank indexes into the same shard snapshots — while
// a writer publishes waves into the same shards and buckets. The writer's
// users act on actions the readers' users never touch, so they are never
// neighbours and every answer must stay the frozen reference's.
func TestRankIndexConcurrentRebuild(t *testing.T) {
	s := newSPA(t, "")
	const users = 64
	for id := uint64(1); id <= 2*users; id++ {
		if err := s.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Readers' users 1..64 act on actions below 200.
	events := zipfEvents(3, users, 2000, t0.Add(-200*time.Hour))
	for i := range events {
		events[i].Action %= 200
	}
	if _, _, err := s.BatchIngest(events); err != nil {
		t.Fatal(err)
	}
	knn := referenceKNN(t, events, func(uint64) bool { return true })
	want := map[[2]int][]cf.Recommendation{}
	for id := 1; id <= users; id++ {
		for _, n := range []int{3, 7} {
			w, err := knn.RecommendTopN(uint64(id), n)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{id, n}] = w
		}
	}
	builds0 := s.ReadStats().RankIndexBuilds

	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		r := rand.New(rand.NewSource(4))
		at := t0.Add(-time.Hour)
		for {
			select {
			case <-stop:
				return
			default:
			}
			wave := make([]lifelog.Event, 8)
			for i := range wave {
				at = at.Add(time.Second)
				wave[i] = lifelog.Event{UserID: uint64(users + 1 + r.Intn(users)), Time: at,
					Type: lifelog.EventClick, Action: uint32(500 + r.Intn(400))}
			}
			if _, _, err := s.BatchIngest(wave); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	errs := make(chan error, 2)
	for reader := range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := range 600 {
				id, n := 1+(i*7+reader*31)%users, []int{3, 7}[(i+reader)%2]
				got, err := s.RecommendActions(uint64(id), n)
				if err == nil && !sameRecs(got, want[[2]int{id, n}]) {
					err = fmt.Errorf("user %d, n %d: got %v, want %v", id, n, got, want[[2]int{id, n}])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.ReadStats(); st.RankIndexBuilds == builds0 || st.RankIndexHits == 0 {
		t.Fatalf("no index built or read under writes: %+v", st)
	}
}

// TestRankIndexRebuildRule: the second ranking of a snapshot builds every
// shard's index; profile-only publishes in every bucket replace buckets but
// no row page, so the inherited indexes serve on without a rebuild; a CF
// wave over every user makes every bucket stale, and the second ranking
// after it rebuilds every shard.
func TestRankIndexRebuildRule(t *testing.T) {
	s := newSPA(t, "")
	const users = 400
	rows := map[uint64][]uint32{}
	for id := uint64(1); id <= users; id++ {
		if err := s.Register(id, nil); err != nil {
			t.Fatal(err)
		}
		rows[id] = []uint32{uint32(id % 50), uint32(100 + id%7)}
	}
	ingestClicks(t, s, rows)
	shards := uint64(len(s.shards))
	rank := func(n int) ReadStats {
		t.Helper()
		for id := uint64(1); id <= 2; id++ {
			if _, err := s.RecommendActions(id, n); err != nil {
				t.Fatal(err)
			}
		}
		return s.ReadStats()
	}
	if st := rank(3); st.RankIndexBuilds != shards || st.RankIndexHits != shards || st.RankIndexMisses != shards {
		t.Fatalf("first two rankings: %+v, want %d builds, %d scans then %d by index", st, shards, shards, shards)
	}
	for id := uint64(1); id <= users; id++ {
		if err := s.Reward(id, []emotion.Attribute{emotion.Stimulated}); err != nil {
			t.Fatal(err)
		}
	}
	if st := rank(4); st.RankIndexBuilds != shards || st.RankIndexHits != 3*shards {
		t.Fatalf("after profile-only publishes: %+v, want no new build and every shard by index", st)
	}
	ingestClicks(t, s, rows)
	if st := rank(5); st.RankIndexBuilds != 2*shards || st.RankIndexHits != 5*shards {
		t.Fatalf("after a CF wave over every user: %+v, want every shard rebuilt", st)
	}
}
