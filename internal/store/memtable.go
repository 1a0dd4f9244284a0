package store

import "bytes"

// memtable is a skiplist keyed by []byte. Tombstones are stored inline so a
// delete shadows older segment data during reads and merges.
//
// A skiplist (rather than Go's map) keeps keys ordered, which Scan and
// segment flushing need, without a sort on every flush.
//
// Ownership: the memtable never copies a key or value. Every slice it holds
// is a slice of a committed WAL record's payload (installLocked), and the
// store keeps each of those payloads in its active-log mirror (activeRecs)
// until the flush that retires this memtable, so the bytes outlive every
// node that points at them. Payloads are immutable, so an update re-points
// the node at the new record's value instead of writing over the old one.
// Nodes and their towers come from slabs the memtable owns; a flush drops
// the memtable and its slabs together.
const (
	maxHeight = 16
	// pBranch is the branching probability expressed as a threshold over a
	// 32-bit draw: ~1/4 keeps towers short and cache-friendly.
	pBranch = 1 << 30

	// nodeSlab and towerSlab size the chunks nodes and towers are carved
	// from: one allocation per 128 new keys instead of two per key. A
	// tower averages 4/3 pointers, so the tower chunk outlasts the node
	// chunk.
	nodeSlab  = 128
	towerSlab = 256
)

type skipNode struct {
	key       []byte
	value     []byte
	tombstone bool
	next      []*skipNode
}

type memtable struct {
	head    *skipNode
	height  int
	count   int
	bytes   int
	rndSeed uint64

	nodes  []skipNode  // unused tail of the current node chunk
	towers []*skipNode // unused tail of the current tower chunk
}

func newMemtable() *memtable {
	return &memtable{
		head:    &skipNode{next: make([]*skipNode, maxHeight)},
		height:  1,
		rndSeed: 0x2545f4914f6cdd1d,
	}
}

func (m *memtable) len() int { return m.count }

// randHeight draws a tower height with geometric distribution.
func (m *memtable) randHeight() int {
	h := 1
	for h < maxHeight {
		m.rndSeed ^= m.rndSeed << 13
		m.rndSeed ^= m.rndSeed >> 7
		m.rndSeed ^= m.rndSeed << 17
		if uint32(m.rndSeed) >= pBranch {
			break
		}
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= key, filling prev
// with the rightmost node before it at every level when prev is non-nil.
func (m *memtable) findGreaterOrEqual(key []byte, prev []*skipNode) *skipNode {
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, key) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// newNode carves a node with an h-level tower from the slabs.
func (m *memtable) newNode(h int) *skipNode {
	if len(m.nodes) == 0 {
		m.nodes = make([]skipNode, nodeSlab)
	}
	n := &m.nodes[0]
	m.nodes = m.nodes[1:]
	if len(m.towers) < h {
		m.towers = make([]*skipNode, max(towerSlab, h))
	}
	n.next = m.towers[:h:h]
	m.towers = m.towers[h:]
	return n
}

// upsert installs key → value (or a tombstone), keeping both slices: they
// must be immutable and outlive the memtable (see the ownership note).
func (m *memtable) upsert(key, value []byte, tombstone bool) {
	var prev [maxHeight]*skipNode
	for i := range prev {
		prev[i] = m.head
	}
	n := m.findGreaterOrEqual(key, prev[:])
	if n != nil && bytes.Equal(n.key, key) {
		m.bytes += len(value) - len(n.value)
		n.value = value
		n.tombstone = tombstone
		return
	}
	h := m.randHeight()
	if h > m.height {
		m.height = h
	}
	node := m.newNode(h)
	node.key, node.value, node.tombstone = key, value, tombstone
	for level := 0; level < h; level++ {
		node.next[level] = prev[level].next[level]
		prev[level].next[level] = node
	}
	m.count++
	m.bytes += len(key) + len(value) + 32
}

func (m *memtable) get(key []byte) (value []byte, tombstone, ok bool) {
	n := m.findGreaterOrEqual(key, nil)
	if n == nil || !bytes.Equal(n.key, key) {
		return nil, false, false
	}
	return n.value, n.tombstone, true
}

// sortedEntries returns every entry (including tombstones) in key order.
func (m *memtable) sortedEntries() []entry {
	out := make([]entry, 0, m.count)
	for n := m.head.next[0]; n != nil; n = n.next[0] {
		out = append(out, entry{key: n.key, value: n.value, tombstone: n.tombstone})
	}
	return out
}

// memIter iterates entries in [start, end); nil bounds are open.
type memIter struct {
	node *skipNode
	end  []byte
}

func (m *memtable) iter(start, end []byte) iterator {
	var n *skipNode
	if start == nil {
		n = m.head.next[0]
	} else {
		n = m.findGreaterOrEqual(start, nil)
	}
	return &memIter{node: n, end: end}
}

func (it *memIter) next() (entry, bool) {
	if it.node == nil {
		return entry{}, false
	}
	if it.end != nil && bytes.Compare(it.node.key, it.end) >= 0 {
		it.node = nil
		return entry{}, false
	}
	e := entry{key: it.node.key, value: it.node.value, tombstone: it.node.tombstone}
	it.node = it.node.next[0]
	return e, true
}
