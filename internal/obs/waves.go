package obs

import (
	"sync"
	"time"
)

// WaveTrace is one group commit's life story: the wave ID the coalescer
// minted, how much it carried, and how long each stage took. Durations
// cover the wave's full path — queue wait is the LONGEST wait among the
// merged requests (the tail a client saw, not the average), CommitWait is
// the pipelined handoff stall (prepared, waiting for the previous wave's
// commit to finish), and WALSync is the slice of Commit spent in the
// store's fsync, attributed back through the store observer by wave ID.
type WaveTrace struct {
	ID       uint64
	Start    time.Time // gather began (first request of the wave left the queue)
	Requests int
	Events   int
	Shards   int

	QueueWait  time.Duration // max over the wave's requests
	Gather     time.Duration
	Prepare    time.Duration
	CommitWait time.Duration
	Commit     time.Duration
	WALSync    time.Duration

	// Err reports whether any request in the wave failed (malformed stream
	// or store failure); per-request detail stays with the responses.
	Err bool
}

// Total is the wave's in-server latency from gather start to commit end.
// Queue wait is not included: it overlaps the previous wave's stages.
func (t WaveTrace) Total() time.Duration {
	return t.Gather + t.Prepare + t.CommitWait + t.Commit
}

// WaveRing keeps the last N wave traces for GET /debug/waves. Recording is
// a mutex-guarded slot write — one per wave, not per request, so the lock
// is far off the hot path.
type WaveRing struct {
	mu   sync.Mutex
	buf  []WaveTrace
	next uint64 // total records; next%len(buf) is the slot to write
}

// NewWaveRing allocates a ring of n slots (minimum 1).
func NewWaveRing(n int) *WaveRing {
	if n < 1 {
		n = 1
	}
	return &WaveRing{buf: make([]WaveTrace, n)}
}

// Record stores one trace, evicting the oldest when full.
func (r *WaveRing) Record(t WaveTrace) {
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = t
	r.next++
	r.mu.Unlock()
}

// Last returns up to n traces, newest first.
func (r *WaveRing) Last(n int) []WaveTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := r.next
	if have > uint64(len(r.buf)) {
		have = uint64(len(r.buf))
	}
	if n < 0 {
		n = 0
	}
	if uint64(n) > have {
		n = int(have)
	}
	out := make([]WaveTrace, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.next-1-uint64(i))%uint64(len(r.buf))])
	}
	return out
}
