package spaclient

// Follower read routing. A client built with Options.ReadFrom spreads its
// read requests round-robin across the primary AND the replica spads (the
// whole pool serves reads — a leader+follower pair aggregates both nodes'
// read capacity), keeping writes on the primary. Before routing to a
// replica the client consults its /v1/replication/status — cached briefly,
// so the status poll costs one extra request per replica per cache window,
// not per read — and skips any follower that is not live on the stream,
// lags past the client's staleness bound, or has stopped hearing leader
// heartbeats. A routed read that fails for any reason falls back to the
// primary: routing is an optimization, never a correctness risk, and the
// caller sees a replica problem only as the primary's answer.

import (
	"sync"
	"time"

	"repro/internal/wire"
)

const (
	// statusCacheTTL is how long one replica status poll stays
	// authoritative for routing decisions.
	statusCacheTTL = time.Second
	// maxHeartbeatAge is the oldest leader heartbeat a follower may report
	// and still take reads: older means its lag figure itself is stale
	// (the stream is probably down and the follower just doesn't know the
	// leader moved on).
	maxHeartbeatAge = 3 * time.Second
)

// replica is one follower read target with its cached status.
type replica struct {
	base string

	mu      sync.Mutex
	st      wire.ReplicationStatus
	fetched time.Time
	healthy bool
}

// eligible reports whether the replica may serve a read under the
// client's staleness bound, polling its status when the cache expired.
func (r *replica) eligible(c *Client) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if time.Since(r.fetched) >= statusCacheTTL {
		var st wire.ReplicationStatus
		err := c.doAt(r.base, "GET", "/v1/replication/status", nil, into(&st))
		r.st, r.healthy, r.fetched = st, err == nil, time.Now()
	}
	if !r.healthy || r.st.Role != "follower" || r.st.State != "streaming" {
		return false
	}
	if r.st.LagWaves > c.maxStale {
		return false
	}
	if r.st.LastHeartbeatUnixNano == 0 {
		return false
	}
	return time.Since(time.Unix(0, r.st.LastHeartbeatUnixNano)) < maxHeartbeatAge
}

// markUnhealthy drops a replica from routing until its next status poll.
func (r *replica) markUnhealthy() {
	r.mu.Lock()
	r.healthy = false
	r.mu.Unlock()
}

// doRead runs one GET over the read pool — the replicas plus the primary,
// round-robin, so a leader+follower pair splits the read load — falling
// back to the primary whenever the rotation lands on an ineligible or
// failing replica. Each call starts from the next round-robin position so
// concurrent readers spread across the pool.
func (c *Client) doRead(path string, decode decodeFunc) error {
	if n := len(c.replicas); n > 0 {
		pool := n + 1 // position n is the primary
		start := int(c.rr.Add(1)-1) % pool
		for i := 0; i < pool; i++ {
			p := (start + i) % pool
			if p == n {
				// The primary's turn in the rotation: it always answers.
				break
			}
			r := c.replicas[p]
			if !r.eligible(c) {
				continue
			}
			if err := c.doAt(r.base, "GET", path, nil, decode); err == nil {
				return nil
			}
			// Transport failures and server errors alike: this replica
			// stops taking reads until a fresh status poll clears it, and
			// the primary answers this request. (A domain-level error —
			// 404, cold-start 409 — also lands here and re-asks the
			// primary; the primary's answer is the authoritative one
			// either way, at the cost of one duplicate read.)
			r.markUnhealthy()
		}
	}
	return c.do("GET", path, nil, decode)
}
