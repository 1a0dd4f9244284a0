package server

// Shard handoff (DESIGN.md §9): moving a set of keyspace slots from the
// node that owns them (the source) to another (the target), under live
// load, without losing an acknowledged write. A handoff is a log-shipping
// session (repl.go, follower.go) with a slot filter and an end. The target
// (handleHandoff → pullSlots) opens it with a handoff subscribe and applies
// with local LSNs until the handoff-commit frame, answering 503 for the
// slots meanwhile (cluster.go's fencing comment). The source (serveHandoff)
// ships the slots' snapshot and log through its head, then fences, flushes,
// ships the final delta, waits for the ack, flips ownership at a fresh
// epoch, and only then sends the commit frame.
//
// No acked write is lost: a write is acknowledged only after its commit,
// every commit to the moving slots lands before the fence barrier or not
// at all, and the source waits for the target's ack of the last shipped
// frame before flipping. If the stream dies at any earlier point the
// source unfences and keeps its slots — the target's partial copy is
// overwritten by the next attempt's snapshot.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/keyspace"
	"repro/internal/wire"
)

const (
	// handoffAckWait bounds how long the source waits for the target to
	// acknowledge the final shipped frame before giving up (and keeping
	// its slots).
	handoffAckWait = 30 * time.Second
	// handoffFlushWait bounds how long the fenced source waits for room in
	// the ingest queue to enqueue its flush sentinel.
	handoffFlushWait = time.Second
)

// flushCoalescer pushes a sentinel (empty) request through the coalescer
// and waits for its commit. Waves commit in FIFO order, so when the
// sentinel's wave is done every job enqueued before it has committed —
// the step that closes the gap between "the stream reader released the
// cluster guard after enqueueing" and "that job's wave hit the log". The
// sentinel waits for queue room for at most handoffFlushWait, so the fence
// window ends as soon as the queue drains. A non-nil error means that
// conclusion does NOT hold (the sentinel never entered the queue); the
// caller must not treat the log as drained.
func (s *Server) flushCoalescer() error {
	ctx, cancel := context.WithTimeout(context.Background(), handoffFlushWait)
	defer cancel()
	job := &ingestJob{done: make(chan ingestDone, 1)}
	if err := s.co.enqueueWait(ctx, job); err != nil {
		return fmt.Errorf("enqueueing the flush sentinel: %w", err)
	}
	<-job.done
	return nil
}

// serveHandoff runs the source side of one slot transfer over an upgraded
// replication connection; sess already carries the conn and hello, br is
// positioned after the handoff-subscribe frame.
func (s *Server) serveHandoff(sess *replSession, br *bufio.Reader, hs wire.HandoffSubscribe) {
	c := s.cluster
	if c == nil {
		sess.sendError(http.StatusNotImplemented, errors.New("not a cluster node (spad -cluster)"))
		return
	}
	if hs.NodeID == c.nodeID {
		sess.sendError(http.StatusBadRequest, errors.New("handoff target is the source itself"))
		return
	}
	if !c.handoffMu.TryLock() {
		sess.sendError(http.StatusConflict, errors.New("another handoff is in progress"))
		return
	}
	defer c.handoffMu.Unlock()
	c.ensureNode(hs.NodeID, hs.Addr)
	// Epoch coordination: adopt the target's current map before doing
	// anything else, so the epoch minted at the flip supersedes every flip
	// the target has already absorbed from other sources (cluster.go's
	// lifecycle comment has the collision scenario). No valid map means no
	// safe mint — refuse the handoff.
	if err := c.syncWith(hs.Addr); err != nil {
		sess.sendError(http.StatusPreconditionFailed,
			fmt.Errorf("syncing topology with target %s: %w", hs.Addr, err))
		return
	}
	// Ownership is checked against the post-sync map: the adopted topology
	// may have moved slots away from this node.
	if owns, slot, owner, addr := c.ownsAll(&hs.Slots); !owns {
		sess.sendError(http.StatusMisdirectedRequest,
			fmt.Errorf("slot %d is owned by node %s at %s", slot, owner, addr))
		return
	}

	// The moving slots' current profiles, then their records from the
	// snapshot's position on.
	if !sess.open(br, 0, hs.Window, &hs.Slots) {
		return
	}

	// Phase 1: catch up to the head under live writes.
	if head, ok := s.spa.AppliedLSN(); ok {
		if err := sess.shipThrough(head); err != nil {
			return
		}
	}

	// Phase 2: fence the moving slots, wait out admitted writers (the
	// guard barrier), flush the coalescer's queue, and ship the final
	// delta. From here until the flip, writes to the moving slots answer
	// 503; everything else flows.
	c.setFence(&hs.Slots, true)
	fenced := true
	defer func() {
		if fenced {
			c.setFence(&hs.Slots, false)
		}
	}()
	// The empty critical section IS the barrier: taking the write lock
	// waits out every reader admitted before the fence went up.
	c.guard.Lock()
	c.guard.Unlock() //nolint:staticcheck // SA2001: empty section intended
	if err := s.flushCoalescer(); err != nil {
		// An unflushed queue can still hold a fenced-slot write admitted
		// before the fence went up; flipping now would commit it on the old
		// owner, unshipped — a lost acknowledged write. Abort instead: keep
		// the slots, unfence (deferred), and let the target retry.
		sess.sendError(http.StatusServiceUnavailable,
			fmt.Errorf("draining pending ingest before the flip: %w", err))
		return
	}
	final, _ := s.spa.AppliedLSN()
	if err := sess.shipThrough(final); err != nil {
		return
	}

	// Phase 3: the flip is legal only once the target holds everything
	// shipped — wait for its cumulative ack to reach the last framed
	// position. The wait wakes on the ack itself, so the fence window ends
	// as soon as the final ack lands.
	lastShipped := sess.sent.Load()
	if err := sess.waitAcked(lastShipped, handoffAckWait); err != nil {
		if errors.Is(err, errAckWaitTimeout) {
			sess.sendError(http.StatusGatewayTimeout, fmt.Errorf("target never acked through %d: %w", lastShipped, err))
		}
		return
	}

	// Phase 4: flip ownership at a fresh epoch, finish the source's own
	// bookkeeping — unfence (the slots now bounce 421), count the move, drop
	// the moved users — and only then tell the target. Once the target has
	// the commit frame its caller may observe the source, so the source must
	// already look moved. If the frame is lost the target still converges:
	// gossip carries the source's higher-epoch map, which already names the
	// target as owner.
	moved := hs.Slots.Count()
	epoch := c.flipTo(&hs.Slots, hs.NodeID, hs.Addr)
	c.setFence(&hs.Slots, false)
	fenced = false
	s.met.slotMoves.Add(uint64(moved))
	dropped := s.spa.DropSlotUsers(&hs.Slots)
	if err := sess.writeFrame(wire.EncodeHandoffCommit(wire.HandoffCommit{LSN: final, Epoch: epoch})); err != nil {
		s.logf("spad: handoff: commit frame to %s lost (epoch %d stands): %v", hs.NodeID, epoch, err)
	}
	s.logf("spad: handoff: moved %d slots (%d users) to node %s at epoch %d", moved, dropped, hs.NodeID, epoch)
}

// handleHandoff is the target side's entry point: POST /v1/cluster/handoff
// with a slot list and/or a source node whose entire ownership should move
// here. The target pulls from each current owner in turn.
func (s *Server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		s.writeError(w, http.StatusNotImplemented, errors.New("not a cluster node (spad -cluster)"))
		return
	}
	if _, durable := s.spa.AppliedLSN(); !durable {
		s.writeError(w, http.StatusNotImplemented, errors.New("handoff requires a durable store (spad -data)"))
		return
	}
	var req wire.HandoffRequest
	if !s.decode(w, r, &req) {
		return
	}
	topo := c.topology()
	var want keyspace.SlotSet
	for _, slot := range req.Slots {
		if slot < 0 || slot >= keyspace.NumSlots {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("slot %d out of range", slot))
			return
		}
		want.Add(slot)
	}
	if req.FromNode != "" {
		if _, ok := topo.Nodes[req.FromNode]; !ok {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("unknown node %q", req.FromNode))
			return
		}
		for slot, owner := range topo.Slots {
			if owner == req.FromNode {
				want.Add(slot)
			}
		}
	}
	// Group the wanted slots by current owner, dropping what is already
	// ours; each group is one pull stream.
	groups := make(map[string]*keyspace.SlotSet)
	for _, slot := range want.Slots() {
		owner := topo.Slots[slot]
		if owner == c.nodeID {
			continue
		}
		g := groups[owner]
		if g == nil {
			g = new(keyspace.SlotSet)
			groups[owner] = g
		}
		g.Add(slot)
	}
	owners := make([]string, 0, len(groups))
	for owner := range groups {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	moved := 0
	for _, owner := range owners {
		addr := topo.Nodes[owner]
		if addr == "" {
			s.writeError(w, http.StatusBadGateway, fmt.Errorf("no address for node %q", owner))
			return
		}
		if err := s.pullSlots(addr, groups[owner]); err != nil {
			// Earlier groups have already moved; report the failure with
			// the partial progress visible in the topology epoch.
			s.writeError(w, http.StatusBadGateway,
				fmt.Errorf("pulling %d slots from node %s (%d already moved): %w",
					groups[owner].Count(), owner, moved, err))
			return
		}
		moved += groups[owner].Count()
	}
	s.writeJSON(w, http.StatusOK, wire.HandoffResponse{Moved: moved, Epoch: c.epochNow()})
}

// pullSlots runs the target side of one handoff stream: the consumer loop
// with local LSNs, snapshot chunks applied as they arrive, and ownership
// adopted on the commit frame.
func (s *Server) pullSlots(sourceAddr string, slots *keyspace.SlotSet) error {
	c := s.cluster
	// Once the source flips it bounces these slots here; until the commit
	// frame lands they answer 503 rather than 421 back to the source.
	c.markIncoming(slots, 1)
	defer c.markIncoming(slots, -1)
	rr, err := dialRepl(sourceAddr, wire.EncodeHandoffSubscribe(wire.HandoffSubscribe{
		Slots:  *slots,
		Window: defaultReplWindow,
		NodeID: c.nodeID,
		Addr:   c.addr,
	}), snapshotReadTimeout)
	if err != nil {
		return err
	}
	defer rr.conn.Close()
	err = s.consume(rr, new(peerPosition), s.spa.ApplyHandoffWaves, true, func(hc wire.HandoffCommit) error {
		c.acquire(slots, hc.Epoch)
		s.met.slotMoves.Add(uint64(slots.Count()))
		s.logf("spad: handoff: acquired %d slots from %s at epoch %d", slots.Count(), sourceAddr, hc.Epoch)
		return nil
	})
	if err != nil {
		return fmt.Errorf("handoff stream: %w", err)
	}
	return nil
}
