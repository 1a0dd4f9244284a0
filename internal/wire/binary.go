package wire

// Binary framing for the ingest hot path. HTTP/JSON costs several µs per
// event to encode and decode — enough to cap the coalescing win on
// CPU-bound hosts (spabench [S3]) — so /v1/ingest negotiates a
// length-prefixed binary frame via Content-Type instead:
//
//	Content-Type: application/x-spa-binary
//
// The frame is versioned and self-describing enough to fail loudly on
// anything it does not recognise:
//
//	[4] magic "SPAB"
//	[1] version (0x01)
//	[1] kind    (0x01 ingest request, 0x02 ingest response)
//	payload
//
// Request payload: a uvarint record count, then per event one
// varint-prefixed record — a uvarint byte length followed by
//
//	uvarint user_id
//	varint  time_unix_nano
//	[1]     type
//	uvarint action
//	uvarint float32 bits of value
//	uvarint campaign
//
// Response payload: varint processed, varint skipped_unknown,
// varint coalesced_with.
//
// The per-record length prefix lets a decoder skip or bound a record
// without understanding every field, and gives future versions room to
// append fields (old fields decode, the length says where the record
// ends). Encode/decode round-trip exactly against the JSON DTOs: the
// fields are the same ones Event carries, value travels as its IEEE-754
// bit pattern, so even NaN payloads survive. Decoding malformed or
// truncated input returns ErrBadFrame-wrapped errors — never panics
// (FuzzDecodeIngestRequest enforces this) — and never trusts a declared
// count or length beyond the bytes actually present.
//
// Error responses are not framed: non-2xx ingest answers keep the JSON
// Error body, so status handling is one code path for both protocols.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"mime"
	"strings"
)

// ContentTypeBinary negotiates the binary ingest framing; anything else on
// /v1/ingest is treated as JSON. A server with the framing disabled answers
// it with 415, which clients take as "speak JSON here from now on".
const ContentTypeBinary = "application/x-spa-binary"

// ErrBadFrame wraps every binary decode failure: wrong magic, wrong
// version, wrong kind, truncation, oversized records, trailing garbage.
var ErrBadFrame = errors.New("wire: bad binary frame")

var binaryMagic = [4]byte{'S', 'P', 'A', 'B'}

// Frame kinds. 0x01/0x02 are the PR 3 per-request vocabulary; 0x03-0x06
// are the stream-control records of stream.go, carved out of the room the
// kind byte reserved.
const (
	KindIngestRequest  = 0x01
	KindIngestResponse = 0x02
	KindStreamHello    = 0x03
	KindStreamCredit   = 0x04
	KindStreamDrain    = 0x05
	KindStreamError    = 0x06
)

const (
	binaryVersion = 0x01

	binaryHeaderLen = 6

	// minRecordLen is the smallest legal record (every field present,
	// single-byte varints); maxRecordLen bounds the largest (worst-case
	// varints sum to 36 bytes) with headroom for appended v2 fields.
	minRecordLen = 6
	maxRecordLen = 64
)

// IsBinaryContentType reports whether a Content-Type header selects the
// binary ingest framing, ignoring media-type parameters. The media type
// must match exactly: when the parameter section is malformed
// (mime.ParseMediaType errors), only the bare type before the first ';'
// is compared — a prefix fallback would let a header like
// "application/x-spa-binaryX;;" select the binary path and feed JSON-era
// decoders frames they never negotiated.
func IsBinaryContentType(ct string) bool {
	if ct == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		mt = strings.ToLower(strings.TrimSpace(strings.SplitN(ct, ";", 2)[0]))
	}
	return mt == ContentTypeBinary
}

func appendBinaryHeader(buf []byte, kind byte) []byte {
	buf = append(buf, binaryMagic[:]...)
	return append(buf, binaryVersion, kind)
}

// checkBinaryHeader validates magic/version/kind and returns the payload.
func checkBinaryHeader(data []byte, kind byte) ([]byte, error) {
	if len(data) < binaryHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte frame shorter than header", ErrBadFrame, len(data))
	}
	if [4]byte(data[:4]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFrame, data[:4])
	}
	if data[4] != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, data[4])
	}
	if data[5] != kind {
		return nil, fmt.Errorf("%w: frame kind %d, want %d", ErrBadFrame, data[5], kind)
	}
	return data[binaryHeaderLen:], nil
}

// binReader is a bounds-checked cursor over a frame payload.
type binReader struct{ p []byte }

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint", ErrBadFrame)
	}
	r.p = r.p[n:]
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.p)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrBadFrame)
	}
	r.p = r.p[n:]
	return v, nil
}

func (r *binReader) byte() (byte, error) {
	if len(r.p) == 0 {
		return 0, fmt.Errorf("%w: truncated byte field", ErrBadFrame)
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b, nil
}

func (r *binReader) uvarint32(field string) (uint32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("%w: %s %d overflows uint32", ErrBadFrame, field, v)
	}
	return uint32(v), nil
}

// EncodeIngestRequest frames one event batch.
func EncodeIngestRequest(events []Event) []byte {
	// ~17 bytes/record for realistic ids and nano timestamps; one alloc
	// for typical batches.
	buf := make([]byte, 0, binaryHeaderLen+binary.MaxVarintLen64+len(events)*20)
	buf = appendBinaryHeader(buf, KindIngestRequest)
	buf = binary.AppendUvarint(buf, uint64(len(events)))
	var rec [maxRecordLen]byte
	for _, e := range events {
		r := rec[:0]
		r = binary.AppendUvarint(r, e.UserID)
		r = binary.AppendVarint(r, e.TimeUnixNano)
		r = append(r, e.Type)
		r = binary.AppendUvarint(r, uint64(e.Action))
		r = binary.AppendUvarint(r, uint64(math.Float32bits(e.Value)))
		r = binary.AppendUvarint(r, uint64(e.Campaign))
		buf = binary.AppendUvarint(buf, uint64(len(r)))
		buf = append(buf, r...)
	}
	return buf
}

// DecodeIngestRequest parses a framed event batch. The declared record
// count is never trusted for allocation beyond what the remaining bytes
// could actually hold.
func DecodeIngestRequest(data []byte) ([]Event, error) {
	payload, err := checkBinaryHeader(data, KindIngestRequest)
	if err != nil {
		return nil, err
	}
	r := binReader{p: payload}
	count, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Every record costs at least 1 length byte + minRecordLen payload.
	if maxPossible := uint64(len(r.p)) / (1 + minRecordLen); count > maxPossible {
		return nil, fmt.Errorf("%w: %d records declared, at most %d fit in %d bytes",
			ErrBadFrame, count, maxPossible, len(r.p))
	}
	events := make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		recLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if recLen < minRecordLen || recLen > maxRecordLen {
			return nil, fmt.Errorf("%w: record %d length %d outside [%d, %d]",
				ErrBadFrame, i, recLen, minRecordLen, maxRecordLen)
		}
		if recLen > uint64(len(r.p)) {
			return nil, fmt.Errorf("%w: record %d length %d exceeds %d remaining bytes",
				ErrBadFrame, i, recLen, len(r.p))
		}
		rec := binReader{p: r.p[:recLen]}
		r.p = r.p[recLen:]
		var e Event
		if e.UserID, err = rec.uvarint(); err != nil {
			return nil, err
		}
		if e.TimeUnixNano, err = rec.varint(); err != nil {
			return nil, err
		}
		if e.Type, err = rec.byte(); err != nil {
			return nil, err
		}
		if e.Action, err = rec.uvarint32("action"); err != nil {
			return nil, err
		}
		bits, err := rec.uvarint32("value bits")
		if err != nil {
			return nil, err
		}
		e.Value = math.Float32frombits(bits)
		if e.Campaign, err = rec.uvarint32("campaign"); err != nil {
			return nil, err
		}
		// A v1 decoder must see exactly the v1 fields; a longer record is
		// a future version's, and ours would have bumped the version byte.
		if len(rec.p) != 0 {
			return nil, fmt.Errorf("%w: record %d has %d trailing bytes", ErrBadFrame, i, len(rec.p))
		}
		events = append(events, e)
	}
	if len(r.p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d records", ErrBadFrame, len(r.p), count)
	}
	return events, nil
}

// EncodeIngestResponse frames one ingest outcome.
func EncodeIngestResponse(resp IngestResponse) []byte {
	buf := make([]byte, 0, binaryHeaderLen+3*binary.MaxVarintLen64)
	buf = appendBinaryHeader(buf, KindIngestResponse)
	buf = binary.AppendVarint(buf, int64(resp.Processed))
	buf = binary.AppendVarint(buf, int64(resp.SkippedUnknown))
	return binary.AppendVarint(buf, int64(resp.CoalescedWith))
}

// DecodeIngestResponse parses a framed ingest outcome.
func DecodeIngestResponse(data []byte) (IngestResponse, error) {
	payload, err := checkBinaryHeader(data, KindIngestResponse)
	if err != nil {
		return IngestResponse{}, err
	}
	r := binReader{p: payload}
	var resp IngestResponse
	read := func(dst *int) {
		if err != nil {
			return
		}
		var v int64
		if v, err = r.varint(); err == nil {
			*dst = int(v)
		}
	}
	read(&resp.Processed)
	read(&resp.SkippedUnknown)
	read(&resp.CoalescedWith)
	if err != nil {
		return IngestResponse{}, err
	}
	if len(r.p) != 0 {
		return IngestResponse{}, fmt.Errorf("%w: %d trailing bytes after response", ErrBadFrame, len(r.p))
	}
	return resp, nil
}
