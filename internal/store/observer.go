package store

import (
	"sync/atomic"
	"time"
)

// Observer receives engine-level timing callbacks — the store's half of the
// serving layer's stage-latency instrumentation. It is a seam, not a
// dependency: the store knows nothing about histograms or metric names;
// the serving layer installs an adapter that records into its own.
//
// Callbacks may run while the engine holds internal locks (a WAL sync
// happens under the store mutex) and on background goroutines (the
// compactor), so implementations must be fast, non-blocking, and must not
// call back into the DB.
type Observer interface {
	// WALSync reports one WAL durability point (buffer flush + fsync) and
	// its duration. wave is the serving-layer wave tag when the sync
	// belongs to a group commit applied via ApplyAllTagged, zero for every
	// other sync (untagged commits, explicit Sync calls).
	WALSync(wave uint64, d time.Duration)
	// Compaction reports one completed merge attempt — a background tier
	// merge or a forced Compact — with its duration and failure, if any.
	// Stale-abort attempts (the merged run was replaced mid-merge) report
	// a nil error like successful ones; they did the work either way.
	Compaction(d time.Duration, err error)
}

// SetObserver installs (or, with nil, removes) the engine observer. Safe
// to call on a live DB; the swap is atomic and in-flight operations use
// whichever observer they loaded.
func (db *DB) SetObserver(o Observer) {
	if o == nil {
		db.obs.Store(nil)
		return
	}
	db.obs.Store(&o)
}

// observer returns the installed observer, or nil.
func (db *DB) observer() Observer {
	if p := db.obs.Load(); p != nil {
		return *p
	}
	return nil
}

// noteCompaction reports one merge attempt to the observer, if installed.
func (db *DB) noteCompaction(d time.Duration, err error) {
	if o := db.observer(); o != nil {
		o.Compaction(d, err)
	}
}

// obsPtr is the DB field type (declared here with its accessors).
type obsPtr = atomic.Pointer[Observer]
