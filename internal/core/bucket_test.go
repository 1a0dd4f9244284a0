package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/emotion"
	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/store"
	"repro/internal/sum"
)

// snapBuckets copies every shard's current bucket pointers.
func snapBuckets(s *SPA) [][]*bucket {
	out := make([][]*bucket, len(s.shards))
	for i, sh := range s.shards {
		out[i] = append([]*bucket(nil), sh.snap.Load().buckets...)
	}
	return out
}

// TestPublishClonesOnlyTouchedBucket pins the copy-on-write contract: a
// one-user publish — of every single-user write shape — installs a new
// bucket for that user's slot and shares every other bucket, in every
// shard, with the previous snapshot by pointer; inside the new bucket every
// page but the user's is shared too.
func TestPublishClonesOnlyTouchedBucket(t *testing.T) {
	for _, shards := range []int{1, 16, 512} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := New(Options{Shards: shards, Clock: clock.NewSimulated(t0)})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if want := max(1, keyspace.NumSlots/shards); len(s.shards[0].snap.Load().buckets) != want {
				t.Fatalf("%d buckets per shard, want %d", len(s.shards[0].snap.Load().buckets), want)
			}
			for id := uint64(1); id <= 2000; id++ {
				if err := s.Register(id, nil); err != nil {
					t.Fatal(err)
				}
			}
			item, err := s.NextQuestion(7)
			if err != nil {
				t.Fatal(err)
			}
			writes := []struct {
				name  string
				user  uint64
				write func() error
			}{
				{"register", 2001, func() error { return s.Register(2001, nil) }},
				{"answer", 7, func() error { return s.SubmitAnswer(7, emotion.Answer{ItemID: item.ID}) }},
				{"reward", 8, func() error { return s.Reward(8, []emotion.Attribute{1}) }},
				{"ingest", 9, func() error {
					_, _, err := s.BatchIngest([]lifelog.Event{clickAt(9, t0.Add(-time.Hour), 3)})
					return err
				}},
				{"commit", 10, func() error {
					return s.PrepareMulti([][]lifelog.Event{{clickAt(10, t0.Add(-time.Hour), 4)}}).Commit()[0].Err
				}},
			}
			for _, w := range writes {
				before := snapBuckets(s)
				if err := w.write(); err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				after := snapBuckets(s)
				si, at := s.place(w.user)
				for i := range after {
					for j := range after[i] {
						same := after[i][j] == before[i][j]
						if touched := i == si && j == at.bucket; touched == same {
							t.Fatalf("%s of user %d (shard %d bucket %d): shard %d bucket %d shared=%v",
								w.name, w.user, si, at.bucket, i, j, same)
						}
					}
				}
				nb, ob := after[si][at.bucket], before[si][at.bucket]
				for pg := range bucketPages {
					if pg == at.page {
						continue
					}
					if unsafe.SliceData(nb.profiles[pg]) != unsafe.SliceData(ob.profiles[pg]) ||
						unsafe.SliceData(nb.rows[pg]) != unsafe.SliceData(ob.rows[pg]) {
						t.Fatalf("%s of user %d: untouched page %d was copied", w.name, w.user, pg)
					}
				}
			}
		})
	}
}

// parityModel is the flat reference the bucketed snapshots must agree with:
// who is resident, and every user's accumulated CF row.
type parityModel struct {
	members map[uint64]bool
	rows    map[uint64]map[uint32]float64
}

func (m *parityModel) fold(id uint64, typ lifelog.EventType, action uint32) {
	w := interactionWeight(typ)
	if w == 0 {
		return
	}
	if m.rows[id] == nil {
		m.rows[id] = map[uint32]float64{}
	}
	m.rows[id][action] += w
}

// checkParity compares every shard snapshot against the model: bucket
// placement and ordering, residency, the CF rows (exactly — weights sum in
// the same order), Users(), and each resident profile against its durable
// record.
func checkParity(t *testing.T, s *SPA, m *parityModel, universe uint64) {
	t.Helper()
	rows := map[uint64]map[uint32]float64{}
	resident := 0
	for i, sh := range s.shards {
		for b, bk := range sh.snap.Load().buckets {
			for pg := range bucketPages {
				at := cell{bucket: b, page: pg}
				for k, e := range bk.profiles[pg] {
					if si, sc := s.place(e.id); si != i || sc != at {
						t.Fatalf("user %d filed in shard %d %+v, belongs in %d %+v", e.id, i, at, si, sc)
					}
					if k > 0 && bk.profiles[pg][k-1].id >= e.id {
						t.Fatalf("shard %d %+v profiles out of order", i, at)
					}
					if e.p.UserID != e.id {
						t.Fatalf("entry %d holds profile of user %d", e.id, e.p.UserID)
					}
					if !m.members[e.id] {
						t.Fatalf("user %d resident, model says not", e.id)
					}
					resident++
				}
				for k, r := range bk.rows[pg] {
					if si, sc := s.place(r.id); si != i || sc != at {
						t.Fatalf("row of user %d filed in shard %d %+v", r.id, i, at)
					}
					if k > 0 && bk.rows[pg][k-1].id >= r.id {
						t.Fatalf("shard %d %+v rows out of order", i, at)
					}
					row := map[uint32]float64{}
					for a, aw := range r.row {
						if a > 0 && r.row[a-1].action >= aw.action {
							t.Fatalf("row of user %d: actions out of order", r.id)
						}
						row[aw.action] = aw.w
					}
					rows[r.id] = row
				}
			}
		}
	}
	if resident != len(m.members) || s.Users() != len(m.members) {
		t.Fatalf("resident %d, Users() %d, model %d", resident, s.Users(), len(m.members))
	}
	if fmt.Sprint(rows) != fmt.Sprint(m.rows) {
		t.Fatalf("CF rows diverge:\nsnapshot %v\nmodel    %v", rows, m.rows)
	}
	for id := uint64(1); id <= universe; id++ {
		p, err := s.Profile(id)
		if !m.members[id] {
			if !errors.Is(err, ErrNoProfile) {
				t.Fatalf("user %d: %v, want ErrNoProfile", id, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		durable, err := s.db.Get(sum.Key(id))
		if err != nil {
			t.Fatalf("user %d: durable record: %v", id, err)
		}
		if !bytes.Equal(sum.Encode(&p), durable) {
			t.Fatalf("user %d: snapshot differs from its durable record", id)
		}
	}
}

// TestBucketedSnapshotParity drives seeded random sequences of every writer
// — registration, both ingest shapes, EIT answers, reinforcement,
// replicated runs (puts, tombstones, annotation events) and slot drops —
// against a flat reference model, with readers hammering the snapshots
// concurrently (run with -race). Shard counts cover one bucket per slot
// (1, 16) and one bucket per shard (512). The run length bounds how many
// replicated records apply as one group; past 1, the instance's whole log
// is also replayed into two followers, record by record and in runs, which
// must read identically.
func TestBucketedSnapshotParity(t *testing.T) {
	const universe, ops = 300, 300
	for _, shards := range []int{1, 16, 512} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				for _, maxRun := range []int{1, 8} {
					t.Run(fmt.Sprintf("run=%d", maxRun), func(t *testing.T) {
						runParity(t, shards, seed, universe, ops, maxRun)
					})
				}
			})
		}
	}
}

// replayLog applies src's whole log to a fresh follower in runs whose
// lengths runLen draws.
func replayLog(t *testing.T, src *SPA, shards int, runLen func() int) *SPA {
	t.Helper()
	f, err := New(Options{DataDir: t.TempDir(), Shards: shards, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	head, _ := src.AppliedLSN()
	tail, err := src.TailLog(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	var run []store.LogRecord
	for applied := uint64(0); applied < head; applied += uint64(len(run)) {
		run = run[:0]
		for n := runLen(); len(run) < n && applied+uint64(len(run)) < head; {
			rec, err := tail.Next()
			if err != nil {
				t.Fatal(err)
			}
			run = append(run, rec)
		}
		if err := f.ApplyReplicatedWaves(run); err != nil {
			t.Fatalf("replaying %d-%d: %v", run[0].LSN, run[len(run)-1].LSN, err)
		}
	}
	return f
}

// assertSameReads checks two instances answer every user's profile and
// recommendation byte for byte, and count the same users.
func assertSameReads(t *testing.T, a, b *SPA, universe uint64) {
	t.Helper()
	if a.Users() != b.Users() {
		t.Fatalf("Users() %d vs %d", a.Users(), b.Users())
	}
	for id := uint64(1); id <= universe; id++ {
		pa, erra := a.Profile(id)
		pb, errb := b.Profile(id)
		if (erra == nil) != (errb == nil) || erra == nil && !bytes.Equal(sum.Encode(&pa), sum.Encode(&pb)) {
			t.Fatalf("user %d: profiles differ (%v, %v)", id, erra, errb)
		}
		ra, erra := a.RecommendActions(id, 5)
		rb, errb := b.RecommendActions(id, 5)
		if fmt.Sprint(erra) != fmt.Sprint(errb) || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("user %d: recommendations differ:\n%v %v\n%v %v", id, ra, erra, rb, errb)
		}
	}
}

func runParity(t *testing.T, shards int, seed int64, universe uint64, ops, maxRun int) {
	rng := rand.New(rand.NewSource(seed))
	s, err := New(Options{DataDir: t.TempDir(), Shards: shards, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := &parityModel{members: map[uint64]bool{}, rows: map[uint64]map[uint32]float64{}}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rrng := rand.New(rand.NewSource(seed*10 + int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(rrng.Int63n(int64(universe))) + 1
				p, err := s.Profile(id)
				if err == nil && (p.UserID != id || len(p.Subjective) != lifelog.DenseLen) {
					t.Errorf("torn read of user %d: %+v", id, p)
					return
				}
				if _, err := s.RecommendActions(id, 3); err != nil &&
					!errors.Is(err, ErrNoProfile) && !errors.Is(err, ErrNoInteractions) {
					t.Errorf("recommend %d: %v", id, err)
					return
				}
				if n := s.Users(); n < 0 || n > int(universe) {
					t.Errorf("Users() = %d", n)
					return
				}
			}
		}(r)
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	types := []lifelog.EventType{lifelog.EventClick, lifelog.EventEnroll, lifelog.EventPageView,
		lifelog.EventSearch, lifelog.EventInfoRequest}
	at := t0.Add(-48 * time.Hour)
	randUser := func() uint64 { return uint64(rng.Int63n(int64(universe))) + 1 }
	randEvent := func(id uint64) lifelog.Event {
		at = at.Add(time.Second)
		// A small action range, so rows accumulate repeated actions.
		return lifelog.Event{UserID: id, Time: at, Type: types[rng.Intn(len(types))],
			Action: uint32(rng.Intn(16))}
	}
	randMember := func() (uint64, bool) {
		for try := 0; try < 20; try++ {
			if id := randUser(); m.members[id] {
				return id, true
			}
		}
		return 0, false
	}

	for op := 0; op < ops; op++ {
		switch k := rng.Intn(100); {
		case k < 30: // register
			id := randUser()
			err := s.Register(id, []float64{float64(id)})
			if m.members[id] != errors.Is(err, ErrAlreadyRegistered) || (!m.members[id] && err != nil) {
				t.Fatalf("op %d: register %d (member=%v): %v", op, id, m.members[id], err)
			}
			m.members[id] = true
		case k < 60: // ingest, merged batches
			batches := make([][]lifelog.Event, 1+rng.Intn(3))
			for b := range batches {
				for e := rng.Intn(6); e >= 0; e-- {
					batches[b] = append(batches[b], randEvent(randUser()))
				}
			}
			outs := s.PrepareMulti(batches).Commit()
			for b, evs := range batches {
				known := 0
				for _, e := range evs {
					if m.members[e.UserID] {
						known++
						m.fold(e.UserID, e.Type, e.Action)
					}
				}
				if o := outs[b]; o.Err != nil || o.Processed != known || o.SkippedUnknown != len(evs)-known {
					t.Fatalf("op %d: batch %d outcome %+v, want %d processed", op, b, o, known)
				}
			}
		case k < 70: // single-profile writes
			id, ok := randMember()
			if !ok {
				continue
			}
			var err error
			switch rng.Intn(3) {
			case 0:
				var item emotion.Item
				if item, err = s.NextQuestion(id); err == nil {
					err = s.SubmitAnswer(id, emotion.Answer{ItemID: item.ID, Option: rng.Intn(len(item.Options))})
				}
			case 1:
				err = s.Reward(id, []emotion.Attribute{emotion.Attribute(rng.Intn(emotion.NumAttributes))})
			default:
				err = s.Punish(id, []emotion.Attribute{emotion.Attribute(rng.Intn(emotion.NumAttributes))})
			}
			if err != nil {
				t.Fatalf("op %d: single-profile write %d: %v", op, id, err)
			}
		case k < 90: // replicated run: puts, tombstones, annotation events
			lsn, _ := s.AppliedLSN()
			recs := make([]store.LogRecord, 1+rng.Intn(maxRun))
			var last uint64 // the user the run's previous record wrote last
			for i := range recs {
				var entries []store.LogEntry
				write := func(id uint64, tombstone bool) {
					if tombstone {
						entries = append(entries, store.LogEntry{Key: sum.Key(id), Tombstone: true})
						delete(m.members, id)
					} else {
						p := sum.NewProfile(id, t0)
						p.Subjective = make([]float64, lifelog.DenseLen)
						p.AnsweredItems = op*10 + i // distinct bytes per record
						entries = append(entries, store.LogEntry{Key: sum.Key(id), Value: sum.Encode(p)})
						m.members[id] = true
					}
					last = id
				}
				if last != 0 {
					// The same user again, flipped: a put after a tombstone or
					// a tombstone after a put, inside one run.
					write(last, m.members[last])
				}
				for e := rng.Intn(4); e >= 0; e-- {
					write(randUser(), rng.Intn(2) == 0)
				}
				var events []taggedEvent
				for e := rng.Intn(4); e > 0; e-- {
					ev := randEvent(randUser())
					events = append(events, taggedEvent{Event: ev})
					m.fold(ev.UserID, ev.Type, ev.Action)
				}
				recs[i] = store.LogRecord{LSN: lsn + 1 + uint64(i), Annotation: encodeWaveAnnotation(events), Entries: entries}
			}
			if err := s.ApplyReplicatedWaves(recs); err != nil {
				t.Fatalf("op %d: replicated run of %d: %v", op, len(recs), err)
			}
		default: // slot drop
			var slots keyspace.SlotSet
			for n := 1 + rng.Intn(3); n > 0; n-- {
				slots.Add(keyspace.Partition(randUser()))
			}
			want := 0
			for id := range m.members {
				if slots.Has(keyspace.Partition(id)) {
					delete(m.members, id)
					want++
				}
			}
			for id := range m.rows {
				if slots.Has(keyspace.Partition(id)) {
					delete(m.rows, id)
				}
			}
			if got := s.DropSlotUsers(&slots); got != want {
				t.Fatalf("op %d: DropSlotUsers dropped %d, want %d", op, got, want)
			}
		}
		if op%25 == 0 || op == ops-1 {
			checkParity(t, s, m, universe)
		}
	}

	if maxRun > 1 {
		// The follower arm: the same log applied record by record and in
		// runs of 1..maxRun reads the same — later changes to a user win,
		// CF weights sum in arrival order.
		perRecord := replayLog(t, s, shards, func() int { return 1 })
		grouped := replayLog(t, s, shards, func() int { return 1 + rng.Intn(maxRun) })
		assertSameReads(t, perRecord, grouped, universe)
	}
}

// BenchmarkCommitScaling times one streamed-frame-shaped wave — 8 users ×
// 4 events, PrepareMulti + Commit, unsynced, 16 shards — at growing
// populations. Publish cost is what scales with the population, so ns/op
// should stay flat. The population is written straight into the store and
// reopened rather than registered through the core, so the benchmark runs
// unchanged against any snapshot layout. Background compaction is off: at
// a million keys it would merge the bulk load's segments during the timed
// loop and measure the store, not the commit.
func BenchmarkCommitScaling(b *testing.B) {
	for _, users := range []int{16 << 10, 128 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			dir := b.TempDir()
			st := store.Options{DisableAutoCompaction: true}
			db, err := store.Open(dir, st)
			if err != nil {
				b.Fatal(err)
			}
			var batch store.WriteBatch
			for id := uint64(1); id <= uint64(users); id++ {
				p := sum.NewProfile(id, t0)
				p.Subjective = make([]float64, lifelog.DenseLen)
				batch.Put(sum.Key(id), sum.Encode(p))
				if batch.Len() == 4096 || id == uint64(users) {
					if err := db.Apply(&batch); err != nil {
						b.Fatal(err)
					}
					batch = store.WriteBatch{}
				}
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			s, err := New(Options{DataDir: dir, Store: st, Shards: 16, Clock: clock.NewSimulated(t0)})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(1))
			frame := make([]lifelog.Event, 0, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame = frame[:0]
				at := t0.Add(-time.Hour)
				for u := 0; u < 8; u++ {
					id := uint64(rng.Intn(users)) + 1
					for e := 0; e < 4; e++ {
						frame = append(frame, clickAt(id, at, uint32(rng.Intn(lifelog.ActionUniverse))))
						at = at.Add(time.Second)
					}
				}
				if out := s.PrepareMulti([][]lifelog.Event{frame}).Commit()[0]; out.Err != nil {
					b.Fatal(out.Err)
				}
			}
		})
	}
}
