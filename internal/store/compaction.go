package store

import (
	"fmt"
	"time"
)

// Background size-tiered compaction.
//
// Flushes produce many small segments; every point lookup consults each one
// (bloom filters soften but do not remove the cost), so the compactor
// continuously merges runs of similar-sized segments into bigger ones. The
// policy and its safety argument:
//
//   - Only contiguous SUFFIX runs of the segment list are merged. The merged
//     segment takes a fresh id (greater than every run member, smaller than
//     any segment flushed after the merge started), so both the in-memory
//     splice and the id-sorted order after a reopen put it in exactly the
//     run's position.
//   - Tombstones are dropped only when the run covers the whole list; a
//     tombstone merged out of a mid-list run could otherwise stop shadowing
//     a put in an older segment.
//   - The merge output is written under a ".merge" name that loadSegments
//     ignores, and only renamed to "seg-*.dat" inside the splice's critical
//     section, once the run is re-verified live. A crash before that
//     rename (or on the stale-abort path) leaves nothing a reopen would
//     load.
//   - Old run files are removed oldest-first after the merged file is
//     durable. A crash at any point leaves a file set that reloads
//     correctly: surviving run members are older than the merged segment
//     (which contains their merged content), so the merged segment shadows
//     them, and any shadowing relation among survivors is intact.
//
// The merge itself runs without holding the store lock — segments are
// immutable and fully memory-resident — and the splice re-verifies by
// pointer identity that the run is still live, aborting (and deleting its
// output) if a concurrent forced Compact replaced the world.

// compactLoop is the background goroutine: it wakes on every flush and on a
// slow poll tick, and exits when Close signals.
func (db *DB) compactLoop() {
	defer db.wg.Done()
	ticker := time.NewTicker(db.opts.CompactInterval)
	defer ticker.Stop()
	for {
		select {
		case <-db.closeCh:
			return
		case <-db.compactKick:
		case <-ticker.C:
		}
		// Drain all eligible runs before sleeping again: one merge can make
		// the next run eligible (tier cascade).
		for db.compactOnce() {
			select {
			case <-db.closeCh:
				return
			default:
			}
		}
	}
}

// compactOnce performs at most one tiered merge. It reports whether it
// changed the segment list (so the caller can immediately look for a
// cascading merge).
func (db *DB) compactOnce() bool {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return false
	}
	snapshot := append([]*segment(nil), db.segments...)
	start := pickCompactRun(snapshot, db.opts.CompactMinRun, compactRatio)
	if start < 0 {
		db.mu.Unlock()
		return false
	}
	id := db.nextSeg
	db.nextSeg++
	db.mu.Unlock()

	t0 := time.Now()
	changed, err := db.mergeRun(snapshot[start:], start == 0, id)
	db.noteCompaction(time.Since(t0), err)
	return changed
}

// mergeRun performs one picked tiered merge: merge off-lock, install under
// the lock, remove the replaced files. The returned error is this
// attempt's failure (also recorded via setCompactErr); a stale abort is
// not a failure.
func (db *DB) mergeRun(run []*segment, dropTombs bool, id uint64) (bool, error) {
	merged, err := mergeSegments(run, dropTombs)
	if err != nil {
		db.setCompactErr(err)
		return false, err
	}
	// Write the merge output under a name loadSegments ignores. It only
	// becomes a real segment by the rename below, inside the splice's
	// critical section — so a crash at any earlier point (including the
	// stale-abort path) leaves no file that could shadow or resurrect
	// anything on reopen.
	path := segmentPath(db.dir, id)
	pending := path + ".merge"
	if err := writeSegment(db.fops, pending, merged); err != nil {
		db.setCompactErr(err)
		return false, err
	}
	seg, err := openSegment(pending, id)
	if err != nil {
		db.fops.Remove(pending)
		db.setCompactErr(err)
		return false, err
	}

	db.mu.Lock()
	idx, live := findRun(db.segments, run)
	if db.closed || !live || (dropTombs && idx != 0) {
		// A forced Compact (or Close) rewrote the world while we merged;
		// our output is stale. Drop it.
		db.mu.Unlock()
		db.fops.Remove(pending)
		return false, nil
	}
	if err := db.fops.Rename(pending, path); err != nil {
		db.mu.Unlock()
		db.fops.Remove(pending)
		db.setCompactErr(err)
		return false, err
	}
	seg.path = path
	newSegs := make([]*segment, 0, idx+1+len(db.segments)-(idx+len(run)))
	newSegs = append(newSegs, db.segments[:idx]...)
	newSegs = append(newSegs, seg)
	newSegs = append(newSegs, db.segments[idx+len(run):]...)
	db.segments = newSegs
	db.compactErr = nil
	db.compactions++
	db.mu.Unlock()

	// Old files are unreachable for new readers; in-flight iterators hold
	// the in-memory record blocks. Remove oldest-first for crash safety.
	for _, s := range run {
		s.close()
		if err := db.fops.Remove(s.path); err != nil {
			err = fmt.Errorf("store: removing compacted segment: %w", err)
			db.setCompactErr(err)
			return true, err
		}
	}
	return true, nil
}

func (db *DB) setCompactErr(err error) {
	db.mu.Lock()
	db.compactErr = err
	db.mu.Unlock()
}

// compactRatio bounds the size skew inside one tier: an older segment joins
// the candidate run while its size is at most compactRatio times the bytes
// of the newer run members combined.
const compactRatio = 2.0

// pickCompactRun returns the start index of the suffix run to merge, or -1.
// Walking back from the newest segment, an older segment joins the run
// while its size is at most ratio times the bytes already in the run — the
// classic tiered policy: fresh small flushes merge constantly, a big old
// segment only joins once the tail has grown to its order of magnitude.
func pickCompactRun(segs []*segment, minRun int, ratio float64) int {
	n := len(segs)
	if n < minRun {
		return -1
	}
	runBytes := segs[n-1].size
	start := n - 1
	for i := n - 2; i >= 0; i-- {
		if float64(segs[i].size) > ratio*float64(runBytes) {
			break
		}
		runBytes += segs[i].size
		start = i
	}
	if n-start < minRun {
		return -1
	}
	return start
}

// findRun locates run inside segs by pointer identity, returning the start
// index and whether the whole run is present contiguously.
func findRun(segs []*segment, run []*segment) (int, bool) {
	if len(run) == 0 {
		return -1, false
	}
	for i := 0; i+len(run) <= len(segs); i++ {
		if segs[i] != run[0] {
			continue
		}
		match := true
		for j := 1; j < len(run); j++ {
			if segs[i+j] != run[j] {
				match = false
				break
			}
		}
		if match {
			return i, true
		}
	}
	return -1, false
}
