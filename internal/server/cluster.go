package server

// Cluster mode (DESIGN.md §10): several spad nodes split the user
// population by keyspace slot. Each node serves reads AND writes — but only
// for the slots it owns; everything else bounces with 421 + an X-SPA-Owner
// header naming the owner, exactly as a follower bounces writes to its
// leader. The slot → node map is the topology: versioned by a monotonic
// epoch, identical on every node once gossip converges, served on
// /v1/topology for routing clients.
//
// Topology lifecycle:
//
//   - Epoch 1 is deterministic: the sorted node ids round-robin over the
//     256 slots, so every node computes the same initial map from the same
//     -peers flag with no coordination.
//   - Every ownership change (a shard handoff, handoff.go) bumps the epoch
//     exactly once, on the handoff source, and the new map reaches the
//     target in the handoff-commit frame. Before minting, the source
//     adopts the target's current map (syncWith): a multi-owner handoff
//     reaches each source in turn, usually faster than gossip, and a
//     source minting from a map that predates the previous source's flip
//     would collide — two conflicting maps at the same epoch never
//     reconcile, and a later mint from the stale line could gossip
//     already-moved slots back to a node that has dropped their users.
//     Syncing first makes every epoch minted along a handoff chain
//     strictly higher than every flip the target has already absorbed.
//     Everyone else learns new maps by gossip: each node polls its peers'
//     /v1/topology a few times a second and adopts any validated map with
//     a higher epoch than its own.
//   - Each adopted or minted epoch is persisted (topology.json in the data
//     dir), so a restarting node resumes from the last map it served
//     under, not from the epoch-1 default — a node whose slots moved away
//     while it was up must not reclaim them by restarting.
//
// Write fencing: while a handoff is shipping its final waves, writes to
// the moving slots answer 503 + Retry-After (NOT 421 — ownership has not
// flipped yet, and bouncing to the not-yet-owner would ping-pong). The
// fence works in two steps: admitClusterWrite holds the guard read-side
// across the whole write (check + commit), and the handoff takes the
// write side once the fence flag is up, so when the barrier returns every
// admitted write to the moving slots is durably in the log. The target
// holds the mirror-image window: from its subscribe until it adopts the
// slots it answers 503 for them too, because the source may already have
// flipped and be bouncing clients here, and a 421 back to the source would
// ping-pong the other way.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/wire"
)

const (
	// topologyFile is the persisted map's name inside the cluster dir.
	topologyFile = "topology.json"
	// gossipInterval paces the peer topology polls.
	gossipInterval = 2 * time.Second
	// gossipTimeout bounds one peer poll.
	gossipTimeout = 2 * time.Second
)

// cluster is a node's live view of the slot map plus the write fence.
type cluster struct {
	srv    *Server
	nodeID string
	addr   string // this node's advertised host:port
	dir    string // topology persistence dir ("" = in-memory only)

	// guard is the write-drain barrier: every cluster write holds the read
	// side from ownership check through commit; a handoff fence takes the
	// write side to wait out in-flight writers.
	guard sync.RWMutex

	mu     sync.Mutex
	epoch  uint64
	nodes  map[string]string // node id -> advertised addr
	slots  [keyspace.NumSlots]string
	fenced keyspace.SlotSet
	fence  bool
	// incoming counts the handoff pulls in progress per slot on this node
	// as a target (pullSlots).
	incoming [keyspace.NumSlots]int

	// handoffMu serializes source-side handoffs: one outbound slot
	// transfer at a time keeps the fence and epoch arithmetic simple.
	handoffMu sync.Mutex

	stop chan struct{}
	done chan struct{}
}

// newCluster builds the node's initial topology: the deterministic epoch-1
// map over the sorted node ids, superseded by a persisted map with a
// higher epoch if one exists in dir. The core reloaded every durable
// profile, those of slots handed away before a restart included, so the
// resident users of every slot the node does not own are dropped.
func newCluster(s *Server, nodeID, addr string, peers map[string]string, dir string) *cluster {
	c := &cluster{
		srv:    s,
		nodeID: nodeID,
		addr:   addr,
		dir:    dir,
		nodes:  map[string]string{nodeID: addr},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for id, a := range peers {
		if id != nodeID {
			c.nodes[id] = a
		}
	}
	ids := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	c.epoch = 1
	for i := range c.slots {
		c.slots[i] = ids[i%len(ids)]
	}
	if t, err := c.loadPersisted(); err != nil {
		s.logf("spad: cluster: ignoring persisted topology: %v", err)
	} else if t != nil && t.Epoch > c.epoch {
		c.adoptLocked(*t)
	}
	var foreign keyspace.SlotSet
	for slot, owner := range c.slots {
		if owner != nodeID {
			foreign.Add(slot)
		}
	}
	s.spa.DropSlotUsers(&foreign)
	return c
}

// loadPersisted reads the persisted topology, nil when none exists.
func (c *cluster) loadPersisted() (*wire.Topology, error) {
	if c.dir == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(filepath.Join(c.dir, topologyFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var t wire.Topology
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// persistLocked writes the current map; best effort (a node that cannot
// persist still serves, it just rejoins on the epoch-1 default).
func (c *cluster) persistLocked() {
	if c.dir == "" {
		return
	}
	t := c.topologyLocked()
	raw, err := json.Marshal(t)
	if err == nil {
		path := filepath.Join(c.dir, topologyFile)
		tmp := path + ".tmp"
		if err = os.WriteFile(tmp, raw, 0o644); err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		c.srv.logf("spad: cluster: persisting topology: %v", err)
	}
}

func (c *cluster) topologyLocked() wire.Topology {
	t := wire.Topology{
		Epoch:  c.epoch,
		NodeID: c.nodeID,
		Nodes:  make(map[string]string, len(c.nodes)),
		Slots:  make([]string, keyspace.NumSlots),
	}
	for id, a := range c.nodes {
		t.Nodes[id] = a
	}
	copy(t.Slots, c.slots[:])
	return t
}

// topology snapshots the current map for /v1/topology and gossip.
func (c *cluster) topology() wire.Topology {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.topologyLocked()
}

// adoptLocked installs a validated map with a higher epoch and drops the
// resident users of the slots it takes from this node — never of a slot
// being pulled here, whose partial copy a target keeps until the flip.
func (c *cluster) adoptLocked(t wire.Topology) {
	var lost keyspace.SlotSet
	for slot, owner := range t.Slots {
		if c.slots[slot] == c.nodeID && owner != c.nodeID && c.incoming[slot] == 0 {
			lost.Add(slot)
		}
	}
	c.epoch = t.Epoch
	for id, a := range t.Nodes {
		c.nodes[id] = a
	}
	copy(c.slots[:], t.Slots)
	c.persistLocked()
	if lost.Count() > 0 {
		c.srv.spa.DropSlotUsers(&lost)
	}
}

// adopt installs t if it supersedes the current map; reports whether it did.
func (c *cluster) adopt(t wire.Topology) bool {
	if err := t.Validate(); err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Epoch <= c.epoch {
		return false
	}
	c.adoptLocked(t)
	return true
}

// syncWith pulls a peer's current topology and adopts it if newer — the
// cross-node coordination step a handoff source runs against its target
// before minting an epoch (see the lifecycle comment above). Adopting is
// best-effort monotonic (adopt ignores equal or lower epochs); only a
// failure to obtain a valid map at all is an error, because then the
// source cannot rule out that its own map predates a flip the target has
// already absorbed.
func (c *cluster) syncWith(addr string) error {
	client := &http.Client{Timeout: gossipTimeout}
	resp, err := client.Get("http://" + addr + wire.TopologyPath)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer %s answered %d to topology fetch", addr, resp.StatusCode)
	}
	var t wire.Topology
	if err := json.NewDecoder(resp.Body).Decode(&t); err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return err
	}
	c.adopt(t)
	return nil
}

// ensureNode records a node's advertised address (a handoff target may be
// a fresh node the -peers flags never named).
func (c *cluster) ensureNode(id, addr string) {
	if id == "" || addr == "" {
		return
	}
	c.mu.Lock()
	if c.nodes[id] != addr {
		c.nodes[id] = addr
		c.persistLocked()
	}
	c.mu.Unlock()
}

// slotState reports one slot's owner, its address, the epoch, and whether
// the slot is mid-handoff: fenced on this node as the source, or being
// pulled here and not yet adopted.
func (c *cluster) slotState(slot int) (owner, addr string, epoch uint64, moving bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner = c.slots[slot]
	moving = (c.fence && c.fenced.Has(slot)) || (owner != c.nodeID && c.incoming[slot] > 0)
	return owner, c.nodes[owner], c.epoch, moving
}

// ownsAll reports whether this node owns every slot in the set; when not,
// the first foreign slot and its owner come back for the error message.
func (c *cluster) ownsAll(slots *keyspace.SlotSet) (bool, int, string, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, slot := range slots.Slots() {
		if owner := c.slots[slot]; owner != c.nodeID {
			return false, slot, owner, c.nodes[owner]
		}
	}
	return true, 0, "", ""
}

// slotsOwned counts the slots this node currently owns.
func (c *cluster) slotsOwned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, owner := range c.slots {
		if owner == c.nodeID {
			n++
		}
	}
	return n
}

func (c *cluster) epochNow() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// setFence raises or clears the write fence over a slot set. Clearing is
// idempotent.
func (c *cluster) setFence(slots *keyspace.SlotSet, on bool) {
	c.mu.Lock()
	if on {
		c.fenced = *slots
		c.fence = true
	} else {
		c.fenced = keyspace.SlotSet{}
		c.fence = false
	}
	c.mu.Unlock()
}

// markIncoming adds delta (±1) to the pull count of every slot in the set.
func (c *cluster) markIncoming(slots *keyspace.SlotSet, delta int) {
	c.mu.Lock()
	for _, slot := range slots.Slots() {
		c.incoming[slot] += delta
	}
	c.mu.Unlock()
}

// flipTo reassigns the slots to the target node at a freshly minted epoch
// and returns it — the source side of a handoff commit.
func (c *cluster) flipTo(slots *keyspace.SlotSet, targetID, targetAddr string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	if targetAddr != "" {
		c.nodes[targetID] = targetAddr
	}
	for _, slot := range slots.Slots() {
		c.slots[slot] = targetID
	}
	c.persistLocked()
	return c.epoch
}

// acquire installs this node as the slots' owner at the given epoch — the
// target side of a handoff commit. The epoch was minted by the source, so
// it is adopted even though the rest of the map is carried over.
func (c *cluster) acquire(slots *keyspace.SlotSet, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.epoch = epoch
	}
	for _, slot := range slots.Slots() {
		c.slots[slot] = c.nodeID
	}
	c.persistLocked()
}

// gossipLoop polls peers' topologies and adopts anything newer, so every
// node converges to the highest-epoch map without a coordinator.
func (c *cluster) gossipLoop() {
	defer close(c.done)
	client := &http.Client{Timeout: gossipTimeout}
	tick := time.NewTicker(gossipInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		peers := make([]string, 0, len(c.nodes))
		for id, a := range c.nodes {
			if id != c.nodeID {
				peers = append(peers, a)
			}
		}
		c.mu.Unlock()
		for _, addr := range peers {
			resp, err := client.Get("http://" + addr + wire.TopologyPath)
			if err != nil {
				continue
			}
			var t wire.Topology
			err = json.NewDecoder(resp.Body).Decode(&t)
			resp.Body.Close()
			if err != nil {
				continue
			}
			c.adopt(t)
		}
	}
}

// stopWait stops the gossip loop and waits for it to unwind.
func (c *cluster) stopWait() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// ---- ownership enforcement (server side) ----

// setOwnerHeaders names the owning node on a bounce so the client can
// retry without re-fetching the whole map.
func setOwnerHeaders(w http.ResponseWriter, addr string, epoch uint64) {
	w.Header().Set(wire.OwnerHeader, addr)
	w.Header().Set(wire.EpochHeader, strconv.FormatUint(epoch, 10))
}

// bounceMisowned answers 421 + X-SPA-Owner when another node owns the
// user's slot — the read-path check (reads stay local on the source until
// the ownership flip; a target answers 503 until it adopts the slot).
// Returns true when the request was answered.
func (s *Server) bounceMisowned(w http.ResponseWriter, userID uint64) bool {
	if s.cluster == nil {
		return false
	}
	slot := keyspace.Partition(userID)
	owner, addr, epoch, moving := s.cluster.slotState(slot)
	if owner == s.cluster.nodeID {
		return false
	}
	if moving {
		s.writeHandoffRetry(w, slot, userID)
		return true
	}
	s.met.clusterBounces.Add(1)
	setOwnerHeaders(w, addr, epoch)
	s.writeError(w, http.StatusMisdirectedRequest,
		fmt.Errorf("slot %d (user %d) is owned by node %s at %s", slot, userID, owner, addr))
	return true
}

// admitClusterWrite is the write-path check: ownership plus the handoff
// fence, under the cluster write guard. On success it returns a release
// the caller must run once the write has committed (usually via defer) —
// that is what lets a fence barrier conclude every admitted write is in
// the log. On refusal the response has been written and ok is false.
func (s *Server) admitClusterWrite(w http.ResponseWriter, ids ...uint64) (release func(), ok bool) {
	if s.cluster == nil {
		return func() {}, true
	}
	c := s.cluster
	c.guard.RLock()
	for _, id := range ids {
		slot := keyspace.Partition(id)
		owner, addr, epoch, moving := c.slotState(slot)
		if moving {
			c.guard.RUnlock()
			s.writeHandoffRetry(w, slot, id)
			return nil, false
		}
		if owner != c.nodeID {
			c.guard.RUnlock()
			s.met.clusterBounces.Add(1)
			setOwnerHeaders(w, addr, epoch)
			s.writeError(w, http.StatusMisdirectedRequest,
				fmt.Errorf("slot %d (user %d) is owned by node %s at %s", slot, id, owner, addr))
			return nil, false
		}
	}
	return c.guard.RUnlock, true
}

// admitStreamWrite is admitClusterWrite for the streamed ingest path: on
// refusal it returns the error frame to answer in order (release is nil).
func (s *Server) admitStreamWrite(events []lifelog.Event) (release func(), refuse []byte) {
	if s.cluster == nil {
		return func() {}, nil
	}
	c := s.cluster
	c.guard.RLock()
	for _, e := range events {
		slot := keyspace.Partition(e.UserID)
		owner, addr, _, moving := c.slotState(slot)
		if moving {
			c.guard.RUnlock()
			return nil, wire.EncodeStreamError(http.StatusServiceUnavailable,
				fmt.Sprintf("slot %d (user %d) is being handed off; retry shortly", slot, e.UserID))
		}
		if owner != c.nodeID {
			c.guard.RUnlock()
			s.met.clusterBounces.Add(1)
			return nil, wire.EncodeStreamError(http.StatusMisdirectedRequest,
				fmt.Sprintf("slot %d (user %d) is owned by node %s at %s", slot, e.UserID, owner, addr))
		}
	}
	return c.guard.RUnlock, nil
}

// writeHandoffRetry answers a request for a slot mid-handoff: 503 +
// Retry-After, never a bounce.
func (s *Server) writeHandoffRetry(w http.ResponseWriter, slot int, userID uint64) {
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("slot %d (user %d) is being handed off; retry shortly", slot, userID))
}

// ingestUserIDs collects the distinct user ids of a batch, preserving
// first-appearance order (batches are small; the quadratic scan never
// beats a map's constant factors at these sizes).
func ingestUserIDs(events []lifelog.Event) []uint64 {
	ids := make([]uint64, 0, 8)
outer:
	for _, e := range events {
		for _, id := range ids {
			if id == e.UserID {
				continue outer
			}
		}
		ids = append(ids, e.UserID)
	}
	return ids
}

// handleTopology serves the versioned slot map.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeError(w, http.StatusNotImplemented, errors.New("not a cluster node (spad -node-id)"))
		return
	}
	s.writeJSON(w, http.StatusOK, s.cluster.topology())
}
