package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// aggressive compaction options for tests: tiny memtable, instant polling.
func compactingOpts() Options {
	return Options{
		MemtableBytes:   2 << 10,
		CompactMinRun:   2,
		CompactInterval: 2 * time.Millisecond,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBackgroundCompactionMergesSegments floods the store with flushes and
// waits for the compactor to fold them into a bounded set.
func TestBackgroundCompactionMergesSegments(t *testing.T) {
	db, _ := openTemp(t, compactingOpts())
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), bytes.Repeat([]byte("v"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "segments to merge", func() bool { return db.SegmentCount() <= 4 })
	if err := db.CompactionError(); err != nil {
		t.Fatalf("background compaction failed: %v", err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatalf("k%05d lost after compaction: %v", i, err)
		}
	}
}

// TestCompactionConcurrentWithTraffic runs background compaction under a
// randomized put/delete/read workload over a bounded keyspace, then checks
// the three invariants the compactor must preserve: Scan yields strictly
// ascending keys matching a reference model, deleted keys are gone
// (tombstone elimination at the read surface), and every live key is
// Get-able (bloom filters never produce false negatives).
func TestCompactionConcurrentWithTraffic(t *testing.T) {
	db, _ := openTemp(t, compactingOpts())

	const keyspace = 400
	rng := rand.New(rand.NewSource(42))
	model := make(map[string]string) // reference: single writer, no lock needed

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("key-%06d", rng.Intn(keyspace)))
				if _, err := db.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("reader: %v", err)
					return
				}
				prev := []byte(nil)
				db.Scan(nil, nil, func(k, _ []byte) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("scan order violated: %q then %q", prev, k)
						return false
					}
					prev = append(prev[:0], k...)
					return true
				})
			}
		}(r)
	}

	for i := 0; i < 6000; i++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(keyspace))
		if rng.Intn(4) == 0 {
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		} else {
			v := fmt.Sprintf("val-%d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
	}
	close(stop)
	wg.Wait()

	if err := db.CompactionError(); err != nil {
		t.Fatalf("background compaction failed: %v", err)
	}
	verifyAgainstModel(t, db, model)

	// Force the full merge on top of whatever the background compactor did,
	// then verify again: same contents, one segment, zero tombstones.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.SegmentCount() != 1 {
		t.Fatalf("after forced compact: %d segments", db.SegmentCount())
	}
	verifyAgainstModel(t, db, model)
	assertNoTombstones(t, db)

	// And across a reopen.
	dir := db.dir
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	verifyAgainstModel(t, db2, model)
}

func verifyAgainstModel(t *testing.T, db *DB, model map[string]string) {
	t.Helper()
	got := make(map[string]string)
	prev := []byte(nil)
	err := db.Scan(nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan order violated: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("scan saw %d keys, model has %d", len(got), len(model))
	}
	for k, want := range model {
		if got[k] != want {
			t.Fatalf("key %s: scan %q, model %q", k, got[k], want)
		}
		// Point lookups exercise the bloom path: a false negative would
		// surface as ErrNotFound here.
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("key %s: get %q %v, model %q", k, v, err, want)
		}
	}
}

// assertNoTombstones walks the raw records of every segment and fails on
// any tombstone — physical elimination, not just read-side filtering.
func assertNoTombstones(t *testing.T, db *DB) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, s := range db.segments {
		for pos := int64(0); pos < int64(len(s.data)); {
			e, next, err := decodeRecordAt(s.data, pos)
			if err != nil {
				t.Fatal(err)
			}
			if e.tombstone {
				t.Fatalf("tombstone for %q survived full compaction", e.key)
			}
			pos = next
		}
	}
}

// TestBackgroundCompactionPreservesMidListTombstones forces a mid-list
// merge (run not covering the oldest segment) and checks the tombstone
// still shadows the older put.
func TestBackgroundCompactionPreservesMidListTombstones(t *testing.T) {
	db, _ := openTemp(t, Options{DisableAutoCompaction: true})
	// Oldest segment: a put that must stay shadowed.
	if err := db.Put([]byte("victim"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	// Pad the oldest segment so it is too big to join the run.
	if err := db.Put([]byte("pad"), bytes.Repeat([]byte("p"), 8<<10)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Two small newer segments, one carrying the tombstone.
	if err := db.Delete([]byte("victim")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("other"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.SegmentCount(); got != 3 {
		t.Fatalf("setup made %d segments", got)
	}

	// Run one compaction cycle by hand: the 8 KiB oldest segment is far
	// beyond ratio×(two tiny segments), so the run is the two newest ones.
	db.opts.CompactMinRun = 2
	if !db.compactOnce() {
		t.Fatal("compactOnce found nothing to merge")
	}
	if got := db.SegmentCount(); got != 2 {
		t.Fatalf("after mid-list merge: %d segments", got)
	}
	if _, err := db.Get([]byte("victim")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone dropped in mid-list merge: %v", err)
	}

	// After a reopen the tombstone must still shadow the old put.
	dir := db.dir
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("victim")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone lost across reopen: %v", err)
	}
}

// TestCloseStopsCompactor closes the store while the compactor has pending
// work; Close must not race, deadlock, or resurrect segment files.
func TestCloseStopsCompactor(t *testing.T) {
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		db, err := Open(dir, compactingOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 32)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := db2.Len()
		if err != nil {
			t.Fatal(err)
		}
		if n != 500 {
			t.Fatalf("round %d: %d keys after close/reopen", round, n)
		}
		db2.Close()
	}
}

// TestForcedCompactDuringBackgroundMerge interleaves manual Compact calls
// with a background compactor under write load — the splice-abort path.
func TestForcedCompactDuringBackgroundMerge(t *testing.T) {
	db, _ := openTemp(t, compactingOpts())
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i%700)), bytes.Repeat([]byte("v"), 24)); err != nil {
			t.Fatal(err)
		}
		if i%500 == 499 {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	n, err := db.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 700 {
		t.Fatalf("lost keys: %d of 700", n)
	}
}

func TestPickCompactRun(t *testing.T) {
	seg := func(size int64) *segment { return &segment{size: size} }
	cases := []struct {
		name  string
		sizes []int64
		min   int
		ratio float64
		want  int
	}{
		{"too few", []int64{10, 10}, 4, 2, -1},
		{"equal sizes merge all", []int64{10, 10, 10, 10}, 4, 2, 0},
		{"big head excluded", []int64{1000, 10, 10, 10, 10}, 4, 2, 1},
		{"big head joins once tail is comparable", []int64{50, 20, 20, 20, 20}, 4, 2, 0},
		{"run shorter than min", []int64{1000, 1000, 10, 10}, 3, 2, -1},
		{"empty", nil, 4, 2, -1},
	}
	for _, c := range cases {
		segs := make([]*segment, len(c.sizes))
		for i, s := range c.sizes {
			segs[i] = seg(s)
		}
		if got := pickCompactRun(segs, c.min, c.ratio); got != c.want {
			t.Errorf("%s: got %d, want %d", c.name, got, c.want)
		}
	}
}

// errKillPoint marks injected failures in the kill-point sweep.
var errKillPoint = errors.New("injected kill-point")

// killpointOps is a counting cousin of KillableFileOps: the "device" dies
// at the Nth filesystem mutation and stays dead. The count spans WAL
// writes and syncs, segment creates, writes and syncs, renames and
// removes, so a sweep over killAt crosses every stage of a flush and a
// full compaction cycle — including the .merge staging rename and the
// old-segment removals.
type killpointOps struct {
	mu     sync.Mutex
	n      int
	killAt int // 1-based mutation index at which the device dies; 0 = never
}

func (o *killpointOps) step() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.n++
	if o.killAt > 0 && o.n >= o.killAt {
		return errKillPoint
	}
	return nil
}

func (o *killpointOps) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n
}

func (o *killpointOps) Create(name string) (SegFile, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return &killpointFile{ops: o, File: f}, nil
}

func (o *killpointOps) Rename(oldpath, newpath string) error {
	if err := o.step(); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (o *killpointOps) Remove(name string) error {
	if err := o.step(); err != nil {
		return err
	}
	return os.Remove(name)
}

func (o *killpointOps) OpenWAL(name string) (WALFile, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &killpointFile{ops: o, File: f}, nil
}

// killpointFile serves as both SegFile and WALFile: the *os.File supplies
// reads, seeks and truncation; mutations go through the kill-point gate,
// and after the kill no byte reaches the device.
type killpointFile struct {
	ops *killpointOps
	*os.File
}

func (f *killpointFile) Write(p []byte) (int, error) {
	if err := f.ops.step(); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *killpointFile) Sync() error {
	if err := f.ops.step(); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestCompactionCrashReplaySweep kills the device at every possible
// filesystem mutation across a scripted workload spanning two full
// compaction cycles, then reopens the directory with clean file ops and
// checks the survivor against a shadow map of acknowledged writes:
// every acked put and delete is durable (fsync acked means recovered),
// the single mutation in flight at the kill may land either way but
// nowhere in between, and forcing a compaction on the survivor changes
// no logical content.
func TestCompactionCrashReplaySweep(t *testing.T) {
	type op struct {
		del     bool
		key     string
		val     string
		flush   bool
		compact bool
	}
	// One fixed script shared by every round, so killAt indexes a stable
	// schedule: 90 mutations over 30 keys with periodic deletes, explicit
	// flushes building multi-segment runs, and two forced compactions.
	var script []op
	pad := string(bytes.Repeat([]byte("x"), 40))
	for i := 0; i < 90; i++ {
		k := fmt.Sprintf("k%03d", i%30)
		if i%9 == 8 {
			script = append(script, op{del: true, key: k})
		} else {
			script = append(script, op{key: k, val: fmt.Sprintf("v%03d-%s", i, pad)})
		}
		if i%30 == 29 {
			script = append(script, op{flush: true})
		}
		if i == 59 || i == 89 {
			script = append(script, op{compact: true})
		}
	}

	// run executes the script until the first injected failure. acked maps
	// key to its last acknowledged value ("" = acknowledged delete);
	// pending is the mutation in flight at the kill, nil when the crash
	// hit a flush or compaction (which change no logical state).
	run := func(dir string, killAt int) (acked map[string]string, pending *op, total int) {
		ops := &killpointOps{killAt: killAt}
		acked = make(map[string]string)
		db, err := Open(dir, Options{
			MemtableBytes:         2 << 10,
			SyncWrites:            true,
			DisableAutoCompaction: true,
			FileOps:               ops,
		})
		if err != nil {
			if killAt == 0 {
				t.Fatalf("dry-run open: %v", err)
			}
			return acked, nil, ops.count()
		}
		for i := range script {
			o := script[i]
			var err error
			switch {
			case o.flush:
				err = db.Flush()
			case o.compact:
				err = db.Compact()
			case o.del:
				err = db.Delete([]byte(o.key))
			default:
				err = db.Put([]byte(o.key), []byte(o.val))
			}
			if err != nil {
				if killAt == 0 {
					t.Fatalf("dry run failed at step %d: %v", i, err)
				}
				if !o.flush && !o.compact {
					pending = &script[i]
				}
				// The device is dead: abandon the instance without Close,
				// as a crash would. No background compactor is running.
				return acked, pending, ops.count()
			}
			if o.del {
				acked[o.key] = ""
			} else if !o.flush && !o.compact {
				acked[o.key] = o.val
			}
		}
		if err := db.Close(); err != nil && killAt == 0 {
			t.Fatal(err)
		}
		return acked, nil, ops.count()
	}

	// Dry run: pin the schedule length and prove the script really crosses
	// compaction (a sweep over a workload that never compacts would pass
	// vacuously).
	dryDir := t.TempDir()
	dryAcked, _, total := run(dryDir, 0)
	if total < 100 {
		t.Fatalf("script too short to cover flush+compaction: %d mutations", total)
	}
	db, err := Open(dryDir, Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.SegmentCount(); got != 1 {
		t.Fatalf("dry run should end fully compacted, has %d segments", got)
	}
	db.Close()

	verify := func(killAt int, dir string, acked map[string]string, pending *op) {
		db, err := Open(dir, Options{DisableAutoCompaction: true})
		if err != nil {
			t.Fatalf("killAt=%d: recovery open failed: %v", killAt, err)
		}
		defer db.Close()
		check := func(stage string) {
			for k, v := range acked {
				if pending != nil && k == pending.key {
					continue
				}
				got, err := db.Get([]byte(k))
				if v == "" {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("killAt=%d %s: acked delete of %s resurfaced: %q %v", killAt, stage, k, got, err)
					}
				} else if err != nil || string(got) != v {
					t.Fatalf("killAt=%d %s: acked %s=%q, recovered %q %v", killAt, stage, k, v, got, err)
				}
			}
		}
		check("reopen")
		if pending != nil {
			// The in-flight mutation is the one ambiguous key: its WAL
			// record may have become durable before the kill landed. Old
			// state or new state are both legal; anything else is
			// corruption.
			got, err := db.Get([]byte(pending.key))
			old, had := acked[pending.key]
			okOld := (!had || old == "") && errors.Is(err, ErrNotFound) ||
				had && old != "" && err == nil && string(got) == old
			okNew := pending.del && errors.Is(err, ErrNotFound) ||
				!pending.del && err == nil && string(got) == pending.val
			if !okOld && !okNew {
				t.Fatalf("killAt=%d: in-flight %s recovered to %q %v (old %q, new %q del=%v)",
					killAt, pending.key, got, err, old, pending.val, pending.del)
			}
		}
		// Compaction on the survivor is logically a no-op.
		if err := db.Compact(); err != nil {
			t.Fatalf("killAt=%d: compacting survivor: %v", killAt, err)
		}
		check("post-compact")
	}

	for killAt := 1; killAt <= total; killAt++ {
		dir := t.TempDir()
		acked, pending, _ := run(dir, killAt)
		verify(killAt, dir, acked, pending)
	}
	// killAt beyond the schedule: the clean run's shadow map must survive
	// its graceful close too.
	dir := t.TempDir()
	acked, pending, _ := run(dir, total+10)
	if pending != nil {
		t.Fatal("clean run reported an in-flight mutation")
	}
	if len(acked) != len(dryAcked) {
		t.Fatalf("clean run acked %d keys, dry run %d", len(acked), len(dryAcked))
	}
	verify(total+10, dir, acked, nil)
}

// TestOpenRefusesV1Segment writes a version-1 segment by hand (no bloom
// footer): openSegment and Open both fail, naming the magic, rather than
// serving reads from a format this build no longer reads.
func TestOpenRefusesV1Segment(t *testing.T) {
	dir := t.TempDir()
	path := segmentPath(dir, 1)
	entries := []entry{
		{key: []byte("alpha"), value: []byte("1")},
		{key: []byte("beta"), tombstone: true},
		{key: []byte("gamma"), value: []byte("3")},
	}
	writeSegmentV1(t, path, entries)

	if _, err := openSegment(path, 1); err == nil || !strings.Contains(err.Error(), "SPASEG01") {
		t.Fatalf("openSegment on a v1 segment: %v, want a bad-magic error naming SPASEG01", err)
	}
	db, err := Open(dir, Options{})
	if err == nil {
		db.Close()
		t.Fatal("Open served a directory holding a v1 segment")
	}
	if !strings.Contains(err.Error(), "bad magic") || !strings.Contains(err.Error(), "SPASEG01") {
		t.Fatalf("Open on a v1 segment: %v, want a bad-magic error naming SPASEG01", err)
	}
}
