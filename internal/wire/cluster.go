package wire

// Cluster framing and DTOs. Cluster mode partitions users across spad
// nodes by keyspace slot (internal/keyspace): a versioned topology maps
// each of the 256 slots to an owning node, and rebalancing moves whole
// slot sets between nodes over the existing SPAB replication transport.
//
// Two frame kinds extend the 0x07-0x0D replication vocabulary (repl.go):
//
//	0x0E handoff-subscribe  target → source, once, first frame after the
//	                        hello on ReplPath: the slot bitmap being moved,
//	                        the wave window credit, and the requesting
//	                        node's id and client-reachable address. The
//	                        source answers with a slot-filtered snapshot
//	                        (snap-begin/chunk/end, reused verbatim) and then
//	                        slot-filtered waves carrying source-log LSNs,
//	                        which the target acks (0x0C) as stream
//	                        positions while applying them locally under its
//	                        own LSNs.
//	0x0F handoff-commit     source → target: the source has fenced writes
//	                        to the moving slots, shipped everything through
//	                        LSN, and bumped the topology to Epoch with the
//	                        target as the new owner. Ownership flips on
//	                        both sides when this frame is processed.
//
// The JSON DTOs below carry the topology map (/v1/topology) and the
// operator-facing handoff trigger (/v1/cluster/handoff).

import (
	"encoding/binary"
	"fmt"
	"net"

	"repro/internal/keyspace"
)

// Handoff frame kinds, continuing repl.go's 0x07-0x0D vocabulary.
const (
	KindHandoffSubscribe = 0x0E
	KindHandoffCommit    = 0x0F
)

// maxHandoffString bounds the node id and address strings in a
// handoff-subscribe frame; both are operator-chosen short identifiers.
const maxHandoffString = 256

// HandoffSubscribe is the target's opening request on a handoff stream.
type HandoffSubscribe struct {
	// Slots is the set of slots being moved; must be non-empty.
	Slots keyspace.SlotSet
	// Window is the wave credit, exactly as in ReplSubscribe.
	Window int
	// NodeID and Addr identify the requesting (target) node: its cluster
	// node id and the address clients and peers reach it at. The source
	// records them in the topology it publishes after the flip.
	NodeID string
	Addr   string
}

// HandoffCommit is the source's final frame: ownership of the subscribed
// slots flips to the target at topology epoch Epoch, with every source
// record through LSN shipped. LSN may be zero when the source log held no
// records for the moving slots.
type HandoffCommit struct {
	LSN   uint64
	Epoch uint64
}

// EncodeHandoffSubscribe frames the target's opening request.
func EncodeHandoffSubscribe(h HandoffSubscribe) []byte {
	buf := make([]byte, 0, binaryHeaderLen+len(h.Slots)+3*binary.MaxVarintLen64+len(h.NodeID)+len(h.Addr))
	buf = appendBinaryHeader(buf, KindHandoffSubscribe)
	buf = append(buf, h.Slots[:]...)
	buf = binary.AppendUvarint(buf, uint64(h.Window))
	buf = binary.AppendUvarint(buf, uint64(len(h.NodeID)))
	buf = append(buf, h.NodeID...)
	buf = binary.AppendUvarint(buf, uint64(len(h.Addr)))
	return append(buf, h.Addr...)
}

func (r *binReader) handoffString(what string) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", fmt.Errorf("%w: empty %s", ErrBadFrame, what)
	}
	if n > maxHandoffString {
		return "", fmt.Errorf("%w: %s length %d exceeds %d", ErrBadFrame, what, n, maxHandoffString)
	}
	if n > uint64(len(r.p)) {
		return "", fmt.Errorf("%w: %s length %d exceeds %d remaining bytes", ErrBadFrame, what, n, len(r.p))
	}
	s := string(r.p[:n])
	r.p = r.p[n:]
	return s, nil
}

// DecodeHandoffSubscribe parses a handoff-subscribe frame.
func DecodeHandoffSubscribe(frame []byte) (HandoffSubscribe, error) {
	payload, err := checkBinaryHeader(frame, KindHandoffSubscribe)
	if err != nil {
		return HandoffSubscribe{}, err
	}
	r := binReader{p: payload}
	var h HandoffSubscribe
	if len(r.p) < len(h.Slots) {
		return HandoffSubscribe{}, fmt.Errorf("%w: handoff slot bitmap truncated (%d of %d bytes)", ErrBadFrame, len(r.p), len(h.Slots))
	}
	copy(h.Slots[:], r.p)
	r.p = r.p[len(h.Slots):]
	if h.Slots.Count() == 0 {
		return HandoffSubscribe{}, fmt.Errorf("%w: handoff subscribe names no slots", ErrBadFrame)
	}
	window, err := r.uvarint()
	if err != nil {
		return HandoffSubscribe{}, err
	}
	if window == 0 || window > MaxStreamCredit {
		return HandoffSubscribe{}, fmt.Errorf("%w: handoff window %d outside (0, 2^20]", ErrBadFrame, window)
	}
	h.Window = int(window)
	if h.NodeID, err = r.handoffString("handoff node id"); err != nil {
		return HandoffSubscribe{}, err
	}
	if h.Addr, err = r.handoffString("handoff node addr"); err != nil {
		return HandoffSubscribe{}, err
	}
	if len(r.p) != 0 {
		return HandoffSubscribe{}, fmt.Errorf("%w: %d trailing bytes after handoff subscribe", ErrBadFrame, len(r.p))
	}
	return h, nil
}

// EncodeHandoffCommit frames the source's ownership flip.
func EncodeHandoffCommit(c HandoffCommit) []byte {
	buf := make([]byte, 0, binaryHeaderLen+2*binary.MaxVarintLen64)
	buf = appendBinaryHeader(buf, KindHandoffCommit)
	buf = binary.AppendUvarint(buf, c.LSN)
	return binary.AppendUvarint(buf, c.Epoch)
}

// DecodeHandoffCommit parses a handoff-commit frame.
func DecodeHandoffCommit(frame []byte) (HandoffCommit, error) {
	payload, err := checkBinaryHeader(frame, KindHandoffCommit)
	if err != nil {
		return HandoffCommit{}, err
	}
	r := binReader{p: payload}
	var c HandoffCommit
	if c.LSN, err = r.uvarint(); err != nil {
		return HandoffCommit{}, err
	}
	if c.Epoch, err = r.uvarint(); err != nil {
		return HandoffCommit{}, err
	}
	if c.Epoch == 0 {
		return HandoffCommit{}, fmt.Errorf("%w: handoff commit epoch 0 (epochs start at 1)", ErrBadFrame)
	}
	if len(r.p) != 0 {
		return HandoffCommit{}, fmt.Errorf("%w: %d trailing bytes after handoff commit", ErrBadFrame, len(r.p))
	}
	return c, nil
}

// OwnerHeader and EpochHeader accompany a 421 bounce: the owning node's
// client-reachable address (host:port) and the topology epoch the bouncing
// node served under. A routing client retries once against OwnerHeader and
// refreshes its cached map.
const (
	OwnerHeader = "X-SPA-Owner"
	EpochHeader = "X-SPA-Epoch"
)

// TopologyPath is the endpoint serving the cluster's slot map.
const TopologyPath = "/v1/topology"

// HandoffPath is the operator endpoint that makes the receiving node pull
// slots from their current owners.
const HandoffPath = "/v1/cluster/handoff"

// Topology is the GET /v1/topology body: the versioned slot → node map.
// Epochs are monotonic; a node adopts any map with a higher epoch than its
// own, so every ownership change must bump the epoch exactly once.
type Topology struct {
	Epoch uint64 `json:"epoch"`
	// NodeID is the answering node's id — the client learns which replica
	// it asked, and peers gossiping the map learn who published it.
	NodeID string `json:"node_id"`
	// Nodes maps node id → client-reachable base address.
	Nodes map[string]string `json:"nodes"`
	// Slots has exactly keyspace.NumSlots entries; Slots[i] is the node id
	// owning slot i.
	Slots []string `json:"slots"`
}

// Validate checks the structural invariants a routing client relies on.
func (t *Topology) Validate() error {
	if t.Epoch == 0 {
		return fmt.Errorf("wire: topology epoch 0 (epochs start at 1)")
	}
	if len(t.Slots) != keyspace.NumSlots {
		return fmt.Errorf("wire: topology has %d slots, want %d", len(t.Slots), keyspace.NumSlots)
	}
	for id, addr := range t.Nodes {
		if id == "" {
			return fmt.Errorf("wire: topology names a node with an empty id")
		}
		// Clients route to "http://" + addr and peers dial addr, so it
		// must be a bare host:port: an empty address, a URL, or a path
		// would become a bogus route downstream.
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return fmt.Errorf("wire: node %q address %q is not host:port: %w", id, addr, err)
		}
	}
	for i, owner := range t.Slots {
		if _, ok := t.Nodes[owner]; !ok {
			return fmt.Errorf("wire: slot %d owned by unknown node %q", i, owner)
		}
	}
	return nil
}

// HandoffRequest is the POST /v1/cluster/handoff body. The receiving node
// pulls the named slots (and/or every slot currently owned by FromNode)
// from their owners and becomes their owner. Slots it already owns are
// ignored.
type HandoffRequest struct {
	Slots    []int  `json:"slots,omitempty"`
	FromNode string `json:"from_node,omitempty"`
}

// HandoffResponse reports a completed handoff: how many slots moved and
// the topology epoch after the final flip (unchanged if nothing moved).
type HandoffResponse struct {
	Moved int    `json:"moved"`
	Epoch uint64 `json:"epoch"`
}
