package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestApplyOwnership checks the copy rule: after Apply nothing the store
// holds refers to the caller's slices or to the batch, so a caller that
// rewrites its buffers, and a batch that is Reset and refilled in place,
// leave the applied keys as they were.
func TestApplyOwnership(t *testing.T) {
	db, err := Open(t.TempDir(), Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := []byte("user/0001")
	value := []byte("first-value")
	var b WriteBatch
	b.Grow(3, 64) // one arena, so the refill below lands on the applied bytes
	b.Put(key, value)
	b.Put([]byte("user/0002"), []byte("second-value"))
	b.Delete([]byte("user/0003"))
	b.SetAnnotation([]byte("note"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"user/0001": "first-value", "user/0002": "second-value"}

	copy(key, "XXXXXXXXX")
	copy(value, "YYYYYYYYYYY")
	b.Reset()
	b.Put([]byte("other/001"), []byte("other-value"))
	b.Put([]byte("other/002"), []byte("other-valu2"))
	b.SetAnnotation([]byte("eton"))
	checkContents(t, db, want)

	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	want["other/001"], want["other/002"] = "other-value", "other-valu2"
	checkContents(t, db, want)
}

// TestOverwriteKeepsLoggedValue checks that an update re-points the
// memtable instead of writing over the value it replaces: the earlier
// record is still in the log (and shipped to followers) byte for byte.
func TestOverwriteKeepsLoggedValue(t *testing.T) {
	db, err := Open(t.TempDir(), Options{DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, v := range []string{"aaaaaaaa", "bbbbbbbb", "cc"} {
		if err := db.Put([]byte("k"), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	tail, err := db.TailLog(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for _, v := range []string{"aaaaaaaa", "bbbbbbbb", "cc"} {
		rec, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got := string(rec.Entries[0].Value); got != v {
			t.Fatalf("record %d holds %q, want %q", rec.LSN, got, v)
		}
		// A tail consumer owns what it gets: scribbling on it must not
		// reach the store.
		copy(rec.Entries[0].Value, "ZZZZZZZZ")
	}
	checkContents(t, db, map[string]string{"k": "cc"})
}

func checkContents(t *testing.T, db *DB, want map[string]string) {
	t.Helper()
	for k, v := range want {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, got, err, v)
		}
	}
	seen := 0
	if err := db.Scan(nil, nil, func(k, v []byte) bool {
		seen++
		if want[string(k)] != string(v) {
			t.Errorf("Scan: %q = %q, want %q", k, v, want[string(k)])
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Fatalf("Scan saw %d keys, want %d", seen, len(want))
	}
}

// copyMerge is the copy-based reference merge: every record of every
// segment is copied into a map, oldest segment first so newer versions
// overwrite older ones, then sorted.
func copyMerge(t *testing.T, segs []*segment, dropTombstones bool) []entry {
	t.Helper()
	latest := map[string]entry{}
	for _, s := range segs {
		it, err := s.iter(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for e, ok := it.next(); ok; e, ok = it.next() {
			latest[string(e.key)] = entry{key: bytes.Clone(e.key), value: bytes.Clone(e.value), tombstone: e.tombstone}
		}
	}
	out := make([]entry, 0, len(latest))
	for _, e := range latest {
		if e.tombstone && dropTombstones {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].key, out[j].key) < 0 })
	return out
}

// TestMergeMatchesCopyReference holds mergeSegments, whose entries alias
// the segments' record blocks, to a copying reference: across overwrites
// and tombstones, with tombstones kept and dropped, the two write
// byte-identical segments.
func TestMergeMatchesCopyReference(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var segs []*segment
		for id := uint64(1); id <= 4; id++ {
			byKey := map[string]entry{}
			for n := rng.Intn(300) + 1; n > 0; n-- {
				k := fmt.Sprintf("key/%04d", rng.Intn(400))
				e := entry{key: []byte(k), tombstone: rng.Intn(4) == 0}
				if !e.tombstone {
					e.value = []byte(fmt.Sprintf("v%d-%d-%s", id, rng.Intn(1000), k)[:rng.Intn(12)+1])
				}
				byKey[k] = e
			}
			entries := make([]entry, 0, len(byKey))
			for _, e := range byKey {
				entries = append(entries, e)
			}
			sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
			path := filepath.Join(dir, fmt.Sprintf("seg-%d-%d.dat", seed, id))
			if err := writeSegment(osFileOps{}, path, entries); err != nil {
				t.Fatal(err)
			}
			s, err := openSegment(path, id)
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, s)
		}
		for _, drop := range []bool{false, true} {
			merged, err := mergeSegments(segs, drop)
			if err != nil {
				t.Fatal(err)
			}
			got := filepath.Join(dir, fmt.Sprintf("got-%d-%v.dat", seed, drop))
			want := filepath.Join(dir, fmt.Sprintf("want-%d-%v.dat", seed, drop))
			if err := writeSegment(osFileOps{}, got, merged); err != nil {
				t.Fatal(err)
			}
			if err := writeSegment(osFileOps{}, want, copyMerge(t, segs, drop)); err != nil {
				t.Fatal(err)
			}
			gb, err := os.ReadFile(got)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := os.ReadFile(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("seed %d, dropTombstones %v: merged segment differs from the copy reference (%d vs %d bytes)",
					seed, drop, len(gb), len(wb))
			}
		}
	}
}
