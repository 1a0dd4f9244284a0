package spaclient

// Topology-aware routing (cluster mode). With Options.Cluster set, the
// client fetches the slot → node map from the primary's /v1/topology,
// routes every user-keyed request to the slot owner, and splits Ingest
// batches so each node receives only the users it owns. The map is a
// cache, not a contract: the server enforces ownership, and a 421 bounce
// carries the true owner in wire.OwnerHeader — the client retries the
// bounced request exactly once against that node and invalidates its
// cache. The retry is never itself retried, so a pathological topology
// (two nodes bouncing at each other mid-handoff) degrades to an error
// after one extra hop instead of a loop.

import (
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/wire"
)

// topologyTTL bounds how long a cached slot map routes requests before a
// routed call re-fetches it. Bounces refresh sooner: any 421 invalidates
// the cache immediately.
const topologyTTL = 10 * time.Second

// clusterRouter caches the cluster's slot map for request routing. The
// mutex guards the fields only, never the topology fetch itself: routed
// requests must not queue behind a round-trip to a possibly-down primary.
type clusterRouter struct {
	mu         sync.Mutex
	epoch      uint64
	owners     [keyspace.NumSlots]string // base URL per slot
	fetched    time.Time                 // last fetch attempt (success or not)
	ok         bool                      // a map has been adopted
	invalid    bool                      // a bounce contradicted the map; refetch before routing by it
	refreshing bool                      // a fetch is in flight (single-flight)
}

// ownerBase returns the base URL of the node owning userID's slot.
// Routing never fails and (almost) never waits: a TTL expiry refreshes
// the map in the background while requests keep routing on the stale one
// (stale routing is corrected by bounces); only a map a bounce has proven
// wrong — or no map at all — is worth a synchronous fetch, and even then
// exactly one caller pays the round-trip while everyone else falls
// through to the primary base or the old map.
func (c *Client) ownerBase(userID uint64) string {
	cr := c.cluster
	if cr == nil {
		return c.base
	}
	cr.mu.Lock()
	if !cr.refreshing {
		stale := time.Since(cr.fetched) > topologyTTL // fetched zero => stale
		switch {
		case cr.invalid || (!cr.ok && stale):
			cr.refreshing = true
			cr.mu.Unlock()
			cr.refresh(c)
			cr.mu.Lock()
		case stale:
			cr.refreshing = true
			go cr.refresh(c)
		}
	}
	defer cr.mu.Unlock()
	if !cr.ok {
		return c.base
	}
	if base := cr.owners[keyspace.Partition(userID)]; base != "" {
		return base
	}
	return c.base
}

// refresh fetches the topology from the primary and installs it; the
// caller has set cr.refreshing, which completion clears. Failures (node
// down, standalone daemon answering 501) keep whatever map was already
// adopted — stale routing is corrected by bounces, no routing is not —
// and still stamp the attempt, so a dead primary is retried once per TTL,
// not once per request.
func (cr *clusterRouter) refresh(c *Client) {
	var topo wire.Topology
	err := c.doAt(c.base, "GET", wire.TopologyPath, nil, into(&topo))
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.refreshing = false
	cr.invalid = false
	cr.fetched = time.Now()
	if err != nil || topo.Validate() != nil || (cr.ok && topo.Epoch < cr.epoch) {
		return // unreachable, malformed, or older than what we already route by
	}
	for i, node := range topo.Slots {
		cr.owners[i] = "http://" + topo.Nodes[node]
	}
	cr.epoch = topo.Epoch
	cr.ok = true
}

// invalidate marks the map contradicted: the next routed call re-fetches
// before trusting it again.
func (cr *clusterRouter) invalidate() {
	cr.mu.Lock()
	cr.invalid = true
	cr.mu.Unlock()
}

// bouncedTo extracts the retry target from a 421 bounce: the base URL of
// the node the server named as owner. Stream-path bounces carry no owner
// and do not match.
func bouncedTo(err error) (string, bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusMisdirectedRequest && apiErr.Owner != "" {
		return "http://" + apiErr.Owner, true
	}
	return "", false
}

// doUser runs one user-keyed round-trip, routed to the slot owner in
// cluster mode. A bounce invalidates the cached map and retries exactly
// once against the owner the server named; a second bounce surfaces as
// the error.
func (c *Client) doUser(userID uint64, method, path string, in any, decode decodeFunc) error {
	if c.cluster == nil {
		return c.do(method, path, in, decode)
	}
	err := c.doAt(c.ownerBase(userID), method, path, in, decode)
	if owner, ok := bouncedTo(err); ok {
		c.cluster.invalidate()
		err = c.doAt(owner, method, path, in, decode)
	}
	return err
}

// doUserRead routes a user-keyed read: to the slot owner in cluster mode
// (follower read routing is a replication-tree concept, not a cluster
// one), through the replica pool otherwise.
func (c *Client) doUserRead(userID uint64, path string, decode decodeFunc) error {
	if c.cluster != nil {
		return c.doUser(userID, "GET", path, nil, decode)
	}
	return c.doRead(path, decode)
}

// ingestGroup is one node's share of a split batch.
type ingestGroup struct {
	base   string
	events []lifelog.Event
}

// splitByOwner partitions a batch by owning node. Events keep their batch
// order within each group, so per-user order — all of one user's events
// land in one group — is preserved; groups are ordered by first
// appearance.
func (c *Client) splitByOwner(events []lifelog.Event) []ingestGroup {
	var groups []ingestGroup
	idx := make(map[string]int)
	for _, e := range events {
		base := c.ownerBase(e.UserID)
		i, ok := idx[base]
		if !ok {
			i = len(groups)
			idx[base] = i
			groups = append(groups, ingestGroup{base: base})
		}
		groups[i].events = append(groups[i].events, e)
	}
	return groups
}

// ingestRouted ships one owner group with the single-hop bounce retry.
func (c *Client) ingestRouted(g ingestGroup) (wire.IngestResponse, error) {
	resp, err := c.ingestAt(g.base, g.events)
	if owner, ok := bouncedTo(err); ok {
		c.cluster.invalidate()
		resp, err = c.ingestAt(owner, g.events)
	}
	return resp, err
}

// mergeIngest folds one group's outcome into the batch total. Counts sum;
// CoalescedWith — a per-commit observation, not a count — reports the
// largest group commit any part of the batch rode.
func mergeIngest(total *wire.IngestResponse, resp wire.IngestResponse) {
	total.Processed += resp.Processed
	total.SkippedUnknown += resp.SkippedUnknown
	total.CoalescedWith = max(total.CoalescedWith, resp.CoalescedWith)
}
