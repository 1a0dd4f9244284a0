package wire

// Replication framing. A follower replicates the leader by tailing its
// committed log (store.TailLog) over the same SPAB stream transport the
// ingest path uses — one long-lived connection, uvarint length-prefixed
// frames, the PR 5 hello/credit vocabulary for flow control. Seven new
// frame kinds carve the replication conversation out of the kind byte's
// reserved room:
//
//	0x07 subscribe  follower → leader, once, first frame after the hello:
//	                uvarint from_lsn (resume position: the first record the
//	                follower wants), uvarint window (wave frames the leader
//	                may have unacknowledged in flight — the follower is the
//	                receiver here, so it grants the credit).
//	0x08 wave       leader → follower: one committed log record — uvarint
//	                lsn, the record's opaque annotation, and its entries.
//	                Waves consume the subscribe window; the follower's
//	                cumulative acks (0x0C) reopen it.
//	0x09 snap-begin leader → follower: the requested position was compacted
//	                away; a state snapshot follows. uvarint snapshot_lsn
//	                (the position the state is current through), uvarint
//	                pair count.
//	0x0A snap-chunk leader → follower: a run of live key/value pairs.
//	                Snapshot frames are not window-gated — the stream's own
//	                backpressure (TCP) paces them, and the follower is not
//	                applying waves concurrently during bootstrap.
//	0x0B snap-end   leader → follower: uvarint snapshot_lsn again; waves
//	                resume from snapshot_lsn+1.
//	0x0C ack        follower → leader: uvarint applied_lsn, cumulative —
//	                every record through applied_lsn is durably applied.
//	                Reopens the wave window and drives the leader's lag
//	                accounting.
//	0x0D heartbeat  leader → follower, periodic: uvarint leader_lsn (the
//	                leader's current AppliedLSN), so an idle follower can
//	                report lag and staleness without traffic.
//
// Decoding malformed frames returns ErrBadFrame-wrapped errors and never
// panics (FuzzDecodeReplFrame); declared counts are never trusted for
// allocation beyond the bytes actually present.

import (
	"encoding/binary"
	"fmt"
)

// Replication frame kinds, continuing the 0x01-0x06 vocabulary of
// binary.go and stream.go.
const (
	KindReplSubscribe     = 0x07
	KindReplWave          = 0x08
	KindReplSnapshotBegin = 0x09
	KindReplSnapshotChunk = 0x0A
	KindReplSnapshotEnd   = 0x0B
	KindReplAck           = 0x0C
	KindReplHeartbeat     = 0x0D
)

// ReplPath is the HTTP upgrade endpoint for the replication stream; the
// handshake is the same Upgrade: spa-stream/1 dance StreamPath uses.
const ReplPath = "/v1/replicate/stream"

// ReplEntry is one key operation inside a wave or snapshot chunk.
type ReplEntry struct {
	Key       []byte
	Value     []byte
	Tombstone bool
}

// ReplSubscribe is the follower's opening request.
type ReplSubscribe struct {
	// FromLSN is the first record the follower wants (its AppliedLSN+1).
	FromLSN uint64
	// Window is the wave credit: frames the leader may have unacked in
	// flight.
	Window int
}

// ReplWave is one committed log record in flight.
type ReplWave struct {
	LSN        uint64
	Annotation []byte
	Entries    []ReplEntry
}

// ReplSnapshotBegin opens a snapshot transfer.
type ReplSnapshotBegin struct {
	SnapshotLSN uint64
	// Pairs is the total pair count across all chunks, for progress
	// accounting; the end frame is what closes the transfer.
	Pairs uint64
}

// entry flag bits.
const replEntryTombstone = 0x01

func appendReplEntry(buf []byte, e ReplEntry) []byte {
	var flags byte
	if e.Tombstone {
		flags |= replEntryTombstone
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
	buf = append(buf, e.Key...)
	if !e.Tombstone {
		buf = binary.AppendUvarint(buf, uint64(len(e.Value)))
		buf = append(buf, e.Value...)
	}
	return buf
}

func (r *binReader) replEntry() (ReplEntry, error) {
	flags, err := r.byte()
	if err != nil {
		return ReplEntry{}, err
	}
	if flags&^replEntryTombstone != 0 {
		return ReplEntry{}, fmt.Errorf("%w: unknown entry flags %#x", ErrBadFrame, flags)
	}
	var e ReplEntry
	e.Tombstone = flags&replEntryTombstone != 0
	klen, err := r.uvarint()
	if err != nil {
		return ReplEntry{}, err
	}
	if klen == 0 {
		return ReplEntry{}, fmt.Errorf("%w: empty entry key", ErrBadFrame)
	}
	if klen > uint64(len(r.p)) {
		return ReplEntry{}, fmt.Errorf("%w: entry key length %d exceeds %d remaining bytes", ErrBadFrame, klen, len(r.p))
	}
	e.Key = r.p[:klen:klen]
	r.p = r.p[klen:]
	if e.Tombstone {
		return e, nil
	}
	vlen, err := r.uvarint()
	if err != nil {
		return ReplEntry{}, err
	}
	if vlen > uint64(len(r.p)) {
		return ReplEntry{}, fmt.Errorf("%w: entry value length %d exceeds %d remaining bytes", ErrBadFrame, vlen, len(r.p))
	}
	e.Value = r.p[:vlen:vlen]
	r.p = r.p[vlen:]
	return e, nil
}

func (r *binReader) replEntries(what string) ([]ReplEntry, error) {
	count, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Every entry costs at least flags + klen byte + 1 key byte.
	if maxPossible := uint64(len(r.p)) / 3; count > maxPossible {
		return nil, fmt.Errorf("%w: %d %s entries declared, at most %d fit in %d bytes",
			ErrBadFrame, count, what, maxPossible, len(r.p))
	}
	entries := make([]ReplEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		e, err := r.replEntry()
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// EncodeReplSubscribe frames the follower's opening request.
func EncodeReplSubscribe(s ReplSubscribe) []byte {
	buf := make([]byte, 0, binaryHeaderLen+2*binary.MaxVarintLen64)
	buf = appendBinaryHeader(buf, KindReplSubscribe)
	buf = binary.AppendUvarint(buf, s.FromLSN)
	return binary.AppendUvarint(buf, uint64(s.Window))
}

// DecodeReplSubscribe parses a subscribe frame.
func DecodeReplSubscribe(frame []byte) (ReplSubscribe, error) {
	payload, err := checkBinaryHeader(frame, KindReplSubscribe)
	if err != nil {
		return ReplSubscribe{}, err
	}
	r := binReader{p: payload}
	from, err := r.uvarint()
	if err != nil {
		return ReplSubscribe{}, err
	}
	window, err := r.uvarint()
	if err != nil {
		return ReplSubscribe{}, err
	}
	if from == 0 {
		return ReplSubscribe{}, fmt.Errorf("%w: subscribe from_lsn 0 (positions start at 1)", ErrBadFrame)
	}
	if window == 0 || window > MaxStreamCredit {
		return ReplSubscribe{}, fmt.Errorf("%w: subscribe window %d outside (0, 2^20]", ErrBadFrame, window)
	}
	if len(r.p) != 0 {
		return ReplSubscribe{}, fmt.Errorf("%w: %d trailing bytes after subscribe", ErrBadFrame, len(r.p))
	}
	return ReplSubscribe{FromLSN: from, Window: int(window)}, nil
}

// EncodeReplWave frames one committed log record.
func EncodeReplWave(w ReplWave) []byte {
	size := binaryHeaderLen + 3*binary.MaxVarintLen64 + len(w.Annotation)
	for _, e := range w.Entries {
		size += 1 + 2*binary.MaxVarintLen64 + len(e.Key) + len(e.Value)
	}
	buf := make([]byte, 0, size)
	buf = appendBinaryHeader(buf, KindReplWave)
	buf = binary.AppendUvarint(buf, w.LSN)
	buf = binary.AppendUvarint(buf, uint64(len(w.Annotation)))
	buf = append(buf, w.Annotation...)
	buf = binary.AppendUvarint(buf, uint64(len(w.Entries)))
	for _, e := range w.Entries {
		buf = appendReplEntry(buf, e)
	}
	return buf
}

// DecodeReplWave parses a wave frame. The returned slices alias the frame.
func DecodeReplWave(frame []byte) (ReplWave, error) {
	payload, err := checkBinaryHeader(frame, KindReplWave)
	if err != nil {
		return ReplWave{}, err
	}
	r := binReader{p: payload}
	var w ReplWave
	if w.LSN, err = r.uvarint(); err != nil {
		return ReplWave{}, err
	}
	if w.LSN == 0 {
		return ReplWave{}, fmt.Errorf("%w: wave lsn 0 (positions start at 1)", ErrBadFrame)
	}
	alen, err := r.uvarint()
	if err != nil {
		return ReplWave{}, err
	}
	if alen > uint64(len(r.p)) {
		return ReplWave{}, fmt.Errorf("%w: annotation length %d exceeds %d remaining bytes", ErrBadFrame, alen, len(r.p))
	}
	w.Annotation = r.p[:alen:alen]
	r.p = r.p[alen:]
	if w.Entries, err = r.replEntries("wave"); err != nil {
		return ReplWave{}, err
	}
	if len(w.Entries) == 0 {
		return ReplWave{}, fmt.Errorf("%w: wave with no entries", ErrBadFrame)
	}
	if len(r.p) != 0 {
		return ReplWave{}, fmt.Errorf("%w: %d trailing bytes after wave", ErrBadFrame, len(r.p))
	}
	return w, nil
}

// EncodeReplSnapshotBegin frames the start of a snapshot transfer.
func EncodeReplSnapshotBegin(b ReplSnapshotBegin) []byte {
	buf := make([]byte, 0, binaryHeaderLen+2*binary.MaxVarintLen64)
	buf = appendBinaryHeader(buf, KindReplSnapshotBegin)
	buf = binary.AppendUvarint(buf, b.SnapshotLSN)
	return binary.AppendUvarint(buf, b.Pairs)
}

// DecodeReplSnapshotBegin parses a snapshot-begin frame.
func DecodeReplSnapshotBegin(frame []byte) (ReplSnapshotBegin, error) {
	payload, err := checkBinaryHeader(frame, KindReplSnapshotBegin)
	if err != nil {
		return ReplSnapshotBegin{}, err
	}
	r := binReader{p: payload}
	var b ReplSnapshotBegin
	if b.SnapshotLSN, err = r.uvarint(); err != nil {
		return ReplSnapshotBegin{}, err
	}
	if b.Pairs, err = r.uvarint(); err != nil {
		return ReplSnapshotBegin{}, err
	}
	if len(r.p) != 0 {
		return ReplSnapshotBegin{}, fmt.Errorf("%w: %d trailing bytes after snapshot begin", ErrBadFrame, len(r.p))
	}
	return b, nil
}

// EncodeReplSnapshotChunk frames a run of snapshot pairs. Tombstones never
// appear in a snapshot (it is the live key space).
func EncodeReplSnapshotChunk(pairs []ReplEntry) []byte {
	size := binaryHeaderLen + binary.MaxVarintLen64
	for _, e := range pairs {
		size += 1 + 2*binary.MaxVarintLen64 + len(e.Key) + len(e.Value)
	}
	buf := make([]byte, 0, size)
	buf = appendBinaryHeader(buf, KindReplSnapshotChunk)
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	for _, e := range pairs {
		buf = appendReplEntry(buf, e)
	}
	return buf
}

// DecodeReplSnapshotChunk parses a snapshot chunk. The returned slices
// alias the frame.
func DecodeReplSnapshotChunk(frame []byte) ([]ReplEntry, error) {
	payload, err := checkBinaryHeader(frame, KindReplSnapshotChunk)
	if err != nil {
		return nil, err
	}
	r := binReader{p: payload}
	pairs, err := r.replEntries("snapshot")
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("%w: empty snapshot chunk", ErrBadFrame)
	}
	for i, e := range pairs {
		if e.Tombstone {
			return nil, fmt.Errorf("%w: snapshot pair %d is a tombstone", ErrBadFrame, i)
		}
	}
	if len(r.p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot chunk", ErrBadFrame, len(r.p))
	}
	return pairs, nil
}

// EncodeReplSnapshotEnd frames the end of a snapshot transfer.
func EncodeReplSnapshotEnd(snapshotLSN uint64) []byte {
	buf := make([]byte, 0, binaryHeaderLen+binary.MaxVarintLen64)
	buf = appendBinaryHeader(buf, KindReplSnapshotEnd)
	return binary.AppendUvarint(buf, snapshotLSN)
}

// DecodeReplSnapshotEnd parses a snapshot-end frame.
func DecodeReplSnapshotEnd(frame []byte) (uint64, error) {
	payload, err := checkBinaryHeader(frame, KindReplSnapshotEnd)
	if err != nil {
		return 0, err
	}
	r := binReader{p: payload}
	lsn, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if len(r.p) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after snapshot end", ErrBadFrame, len(r.p))
	}
	return lsn, nil
}

// EncodeReplAck frames a cumulative applied-through acknowledgement.
func EncodeReplAck(appliedLSN uint64) []byte {
	return AppendReplAck(make([]byte, 0, binaryHeaderLen+binary.MaxVarintLen64), appliedLSN)
}

// AppendReplAck is EncodeReplAck appending to buf, for callers that reuse
// one buffer across acks.
func AppendReplAck(buf []byte, appliedLSN uint64) []byte {
	buf = appendBinaryHeader(buf, KindReplAck)
	return binary.AppendUvarint(buf, appliedLSN)
}

// DecodeReplAck parses an ack frame.
func DecodeReplAck(frame []byte) (uint64, error) {
	payload, err := checkBinaryHeader(frame, KindReplAck)
	if err != nil {
		return 0, err
	}
	r := binReader{p: payload}
	lsn, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if len(r.p) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after ack", ErrBadFrame, len(r.p))
	}
	return lsn, nil
}

// EncodeReplHeartbeat frames the leader's periodic position report.
func EncodeReplHeartbeat(leaderLSN uint64) []byte {
	buf := make([]byte, 0, binaryHeaderLen+binary.MaxVarintLen64)
	buf = appendBinaryHeader(buf, KindReplHeartbeat)
	return binary.AppendUvarint(buf, leaderLSN)
}

// DecodeReplHeartbeat parses a heartbeat frame.
func DecodeReplHeartbeat(frame []byte) (uint64, error) {
	payload, err := checkBinaryHeader(frame, KindReplHeartbeat)
	if err != nil {
		return 0, err
	}
	r := binReader{p: payload}
	lsn, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if len(r.p) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after heartbeat", ErrBadFrame, len(r.p))
	}
	return lsn, nil
}
