package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestReplSubscribeRoundTrip(t *testing.T) {
	got, err := DecodeReplSubscribe(EncodeReplSubscribe(ReplSubscribe{FromLSN: 42, Window: 64}))
	if err != nil {
		t.Fatal(err)
	}
	if got.FromLSN != 42 || got.Window != 64 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := DecodeReplSubscribe(EncodeReplSubscribe(ReplSubscribe{FromLSN: 0, Window: 8})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("from_lsn 0 accepted: %v", err)
	}
	if _, err := DecodeReplSubscribe(EncodeReplSubscribe(ReplSubscribe{FromLSN: 1, Window: 0})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("window 0 accepted: %v", err)
	}
	if _, err := DecodeReplSubscribe(EncodeReplSubscribe(ReplSubscribe{FromLSN: 1, Window: MaxStreamCredit + 1})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized window accepted: %v", err)
	}
}

func TestReplWaveRoundTrip(t *testing.T) {
	in := ReplWave{
		LSN:        7,
		Annotation: []byte("interactions-blob"),
		Entries: []ReplEntry{
			{Key: []byte("sum/a"), Value: []byte{1, 2, 3}},
			{Key: []byte("sum/b"), Tombstone: true},
			{Key: []byte("k"), Value: nil}, // empty value is legal
		},
	}
	got, err := DecodeReplWave(EncodeReplWave(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != in.LSN || !bytes.Equal(got.Annotation, in.Annotation) {
		t.Fatalf("round trip = %+v", got)
	}
	if len(got.Entries) != len(in.Entries) {
		t.Fatalf("entry count = %d", len(got.Entries))
	}
	for i := range in.Entries {
		if !bytes.Equal(got.Entries[i].Key, in.Entries[i].Key) ||
			!bytes.Equal(got.Entries[i].Value, in.Entries[i].Value) ||
			got.Entries[i].Tombstone != in.Entries[i].Tombstone {
			t.Fatalf("entry %d = %+v, want %+v", i, got.Entries[i], in.Entries[i])
		}
	}
	// No-annotation waves stay legal and distinct from empty-entry waves.
	if _, err := DecodeReplWave(EncodeReplWave(ReplWave{LSN: 1, Entries: []ReplEntry{{Key: []byte("k")}}})); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReplWave(EncodeReplWave(ReplWave{LSN: 1})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty wave accepted: %v", err)
	}
	if _, err := DecodeReplWave(EncodeReplWave(ReplWave{LSN: 0, Entries: []ReplEntry{{Key: []byte("k")}}})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("lsn 0 accepted: %v", err)
	}
}

func TestReplSnapshotFramesRoundTrip(t *testing.T) {
	begin, err := DecodeReplSnapshotBegin(EncodeReplSnapshotBegin(ReplSnapshotBegin{SnapshotLSN: 99, Pairs: 12345}))
	if err != nil {
		t.Fatal(err)
	}
	if begin.SnapshotLSN != 99 || begin.Pairs != 12345 {
		t.Fatalf("begin = %+v", begin)
	}

	pairs := []ReplEntry{
		{Key: []byte("sum/a"), Value: []byte("profile-a")},
		{Key: []byte("sum/b"), Value: []byte{}},
	}
	got, err := DecodeReplSnapshotChunk(EncodeReplSnapshotChunk(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0].Key, pairs[0].Key) || !bytes.Equal(got[0].Value, pairs[0].Value) {
		t.Fatalf("chunk = %+v", got)
	}
	if _, err := DecodeReplSnapshotChunk(EncodeReplSnapshotChunk(nil)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty chunk accepted: %v", err)
	}
	if _, err := DecodeReplSnapshotChunk(EncodeReplSnapshotChunk([]ReplEntry{{Key: []byte("k"), Tombstone: true}})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("tombstone in snapshot accepted: %v", err)
	}

	end, err := DecodeReplSnapshotEnd(EncodeReplSnapshotEnd(99))
	if err != nil || end != 99 {
		t.Fatalf("end = %d, %v", end, err)
	}
}

func TestReplAckHeartbeatRoundTrip(t *testing.T) {
	ack, err := DecodeReplAck(EncodeReplAck(1234))
	if err != nil || ack != 1234 {
		t.Fatalf("ack = %d, %v", ack, err)
	}
	hb, err := DecodeReplHeartbeat(EncodeReplHeartbeat(5678))
	if err != nil || hb != 5678 {
		t.Fatalf("heartbeat = %d, %v", hb, err)
	}
	// The kinds must not cross-decode.
	if _, err := DecodeReplAck(EncodeReplHeartbeat(1)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("heartbeat decoded as ack: %v", err)
	}
}

func TestReplFrameKindsDispatch(t *testing.T) {
	frames := map[byte][]byte{
		KindReplSubscribe:     EncodeReplSubscribe(ReplSubscribe{FromLSN: 1, Window: 1}),
		KindReplWave:          EncodeReplWave(ReplWave{LSN: 1, Entries: []ReplEntry{{Key: []byte("k")}}}),
		KindReplSnapshotBegin: EncodeReplSnapshotBegin(ReplSnapshotBegin{SnapshotLSN: 1}),
		KindReplSnapshotChunk: EncodeReplSnapshotChunk([]ReplEntry{{Key: []byte("k")}}),
		KindReplSnapshotEnd:   EncodeReplSnapshotEnd(1),
		KindReplAck:           EncodeReplAck(1),
		KindReplHeartbeat:     EncodeReplHeartbeat(1),
		KindHandoffSubscribe:  EncodeHandoffSubscribe(testHandoffSubscribe()),
		KindHandoffCommit:     EncodeHandoffCommit(HandoffCommit{LSN: 1, Epoch: 1}),
	}
	for want, frame := range frames {
		kind, err := FrameKind(frame)
		if err != nil {
			t.Fatal(err)
		}
		if kind != want {
			t.Fatalf("FrameKind = %#x, want %#x", kind, want)
		}
	}
}

// decodeAnyReplFrame dispatches like a stream endpoint would; the fuzz
// target drives it to prove no frame input can panic a replication peer.
func decodeAnyReplFrame(frame []byte) {
	kind, err := FrameKind(frame)
	if err != nil {
		return
	}
	switch kind {
	case KindReplSubscribe:
		DecodeReplSubscribe(frame)
	case KindReplWave:
		DecodeReplWave(frame)
	case KindReplSnapshotBegin:
		DecodeReplSnapshotBegin(frame)
	case KindReplSnapshotChunk:
		DecodeReplSnapshotChunk(frame)
	case KindReplSnapshotEnd:
		DecodeReplSnapshotEnd(frame)
	case KindReplAck:
		DecodeReplAck(frame)
	case KindReplHeartbeat:
		DecodeReplHeartbeat(frame)
	case KindHandoffSubscribe:
		DecodeHandoffSubscribe(frame)
	case KindHandoffCommit:
		DecodeHandoffCommit(frame)
	}
}

func FuzzDecodeReplFrame(f *testing.F) {
	f.Add(EncodeReplSubscribe(ReplSubscribe{FromLSN: 7, Window: 32}))
	f.Add(EncodeReplWave(ReplWave{LSN: 9, Annotation: []byte("a"), Entries: []ReplEntry{
		{Key: []byte("sum/x"), Value: []byte("v")},
		{Key: []byte("gone"), Tombstone: true},
	}}))
	f.Add(EncodeReplSnapshotBegin(ReplSnapshotBegin{SnapshotLSN: 3, Pairs: 2}))
	f.Add(EncodeReplSnapshotChunk([]ReplEntry{{Key: []byte("k"), Value: []byte("v")}}))
	f.Add(EncodeReplSnapshotEnd(3))
	f.Add(EncodeReplAck(3))
	f.Add(EncodeReplHeartbeat(4))
	f.Add(EncodeHandoffSubscribe(testHandoffSubscribe()))
	f.Add(EncodeHandoffCommit(HandoffCommit{LSN: 12, Epoch: 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAnyReplFrame(data)
		// The decode-into variant, over a scratch slice dirty from an
		// earlier wave, agrees with DecodeReplWave entry for entry and
		// error for error.
		want, werr := DecodeReplWave(data)
		scratch := append(make([]ReplEntry, 0, 2), ReplEntry{Key: []byte("stale")}, ReplEntry{Key: []byte("old"), Tombstone: true})
		got, gerr := DecodeReplWaveInto(data, scratch)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("errors differ: DecodeReplWave %v, DecodeReplWaveInto %v", werr, gerr)
		}
		if got.LSN != want.LSN || !bytes.Equal(got.Annotation, want.Annotation) || len(got.Entries) != len(want.Entries) {
			t.Fatalf("waves differ: %+v vs %+v", got, want)
		}
		for i, e := range want.Entries {
			g := got.Entries[i]
			if !bytes.Equal(g.Key, e.Key) || !bytes.Equal(g.Value, e.Value) || g.Tombstone != e.Tombstone {
				t.Fatalf("entry %d: %+v, want %+v", i, g, e)
			}
		}
	})
}

func TestDecodeReplTruncations(t *testing.T) {
	// Every prefix of every valid frame must decode to an error, not a
	// panic or a silent success.
	frames := [][]byte{
		EncodeReplSubscribe(ReplSubscribe{FromLSN: 300, Window: 500}),
		EncodeReplWave(ReplWave{LSN: 300, Annotation: []byte("meta"), Entries: []ReplEntry{
			{Key: []byte("key-one"), Value: []byte("value-one")},
			{Key: []byte("key-two"), Tombstone: true},
		}}),
		EncodeReplSnapshotChunk([]ReplEntry{{Key: []byte("key"), Value: []byte("value")}}),
		EncodeHandoffSubscribe(testHandoffSubscribe()),
	}
	for _, frame := range frames {
		kind, err := FrameKind(frame)
		if err != nil {
			t.Fatal(err)
		}
		for cut := binaryHeaderLen; cut < len(frame); cut++ {
			truncated := frame[:cut]
			var derr error
			switch kind {
			case KindReplSubscribe:
				_, derr = DecodeReplSubscribe(truncated)
			case KindReplWave:
				_, derr = DecodeReplWave(truncated)
			case KindReplSnapshotChunk:
				_, derr = DecodeReplSnapshotChunk(truncated)
			case KindHandoffSubscribe:
				_, derr = DecodeHandoffSubscribe(truncated)
			}
			if derr == nil {
				t.Fatalf("kind %#x truncated at %d/%d decoded cleanly", kind, cut, len(frame))
			}
		}
	}
}
