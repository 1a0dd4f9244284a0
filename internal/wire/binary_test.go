package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/lifelog"
)

func sampleEvents() []Event {
	return []Event{
		{UserID: 1, TimeUnixNano: 1136214245000000000, Type: 1, Action: 7},
		{UserID: 18446744073709551615, TimeUnixNano: -62135596800000000, Type: 255, Action: 983, Value: -3.5, Campaign: 4294967295},
		{UserID: 42, TimeUnixNano: 0, Type: 0, Action: 0, Value: math.MaxFloat32, Campaign: 9},
		{UserID: 7, TimeUnixNano: math.MaxInt64, Type: 3, Action: 12, Value: 0.25, Campaign: 1},
		{UserID: 8, TimeUnixNano: math.MinInt64, Type: 4, Action: 1, Value: -0, Campaign: 0},
	}
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	for _, events := range [][]Event{nil, {}, sampleEvents()} {
		frame := EncodeIngestRequest(events)
		got, err := DecodeIngestRequest(frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(events) {
			t.Fatalf("decoded %d events, want %d", len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
			}
		}
	}
}

// TestBinaryRoundTripMatchesJSON pins the equivalence contract: the binary
// framing and the JSON DTOs carry the identical field set, so a batch
// round-tripped through either encoding must come out the same (for the
// values JSON can express; non-finite floats are binary-only and covered
// by TestBinaryValueBitsExact).
func TestBinaryRoundTripMatchesJSON(t *testing.T) {
	events := sampleEvents()
	viaBinary, err := DecodeIngestRequest(EncodeIngestRequest(events))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(IngestRequest{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON IngestRequest
	if err := json.Unmarshal(raw, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaBinary, viaJSON.Events) {
		t.Fatalf("binary %+v != json %+v", viaBinary, viaJSON.Events)
	}
}

// TestBinaryValueBitsExact: the float payload travels as raw IEEE-754
// bits, so even a NaN with a distinctive payload survives binary framing.
func TestBinaryValueBitsExact(t *testing.T) {
	for _, bits := range []uint32{0x7fc00abc, math.Float32bits(float32(math.Inf(1))), math.Float32bits(float32(math.Inf(-1)))} {
		events := []Event{{UserID: 1, TimeUnixNano: 1, Type: 1, Value: math.Float32frombits(bits)}}
		got, err := DecodeIngestRequest(EncodeIngestRequest(events))
		if err != nil {
			t.Fatal(err)
		}
		if gotBits := math.Float32bits(got[0].Value); gotBits != bits {
			t.Fatalf("value bits %#x, want %#x", gotBits, bits)
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	for _, resp := range []IngestResponse{
		{},
		{Processed: 128, SkippedUnknown: 3, CoalescedWith: 17},
		{Processed: math.MaxInt32, SkippedUnknown: 1, CoalescedWith: 1},
	} {
		got, err := DecodeIngestResponse(EncodeIngestResponse(resp))
		if err != nil {
			t.Fatalf("decode %+v: %v", resp, err)
		}
		if got != resp {
			t.Fatalf("got %+v, want %+v", got, resp)
		}
	}
}

func TestBinaryDecodeRejectsMalformed(t *testing.T) {
	valid := EncodeIngestRequest(sampleEvents())
	cases := map[string][]byte{
		"empty":            {},
		"short header":     valid[:4],
		"bad magic":        append([]byte("NOPE"), valid[4:]...),
		"bad version":      append(append([]byte{}, valid[:4]...), 0x7f, valid[5]),
		"response kind":    EncodeIngestResponse(IngestResponse{Processed: 1}),
		"trailing garbage": append(append([]byte{}, valid...), 0xff),
		"truncated tail":   valid[:len(valid)-3],
		// Declared count far beyond what the remaining bytes could hold
		// must fail before allocating.
		"count overclaim": append(append([]byte{}, valid[:6]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, frame := range cases {
		if _, err := DecodeIngestRequest(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err %v, want ErrBadFrame", name, err)
		}
	}
	if _, err := DecodeIngestResponse(valid); !errors.Is(err, ErrBadFrame) {
		t.Errorf("request frame as response: err %v, want ErrBadFrame", err)
	}
	if _, err := DecodeIngestResponse(EncodeIngestResponse(IngestResponse{})[:7]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated response: err %v, want ErrBadFrame", err)
	}
}

func TestIsBinaryContentType(t *testing.T) {
	for ct, want := range map[string]bool{
		ContentTypeBinary:                 true,
		ContentTypeBinary + "; version=1": true,
		"application/json":                false,
		"application/x-spa-binary-v2":     false,
		"":                                false,
		"application/json; charset=utf-8": false,
		"Application/X-SPA-Binary":        true, // media types are case-insensitive
		// Malformed parameter sections must not widen the match to a
		// prefix: the media type itself still has to be exact.
		"application/x-spa-binaryX;;":          false,
		"application/x-spa-binary-v2;;":        false,
		"application/x-spa-binary;;":           true, // right type, junk params
		"Application/X-SPA-Binary ;=":          true,
		"application/x-spa-binary; version=":   true,
		"application/x-spa-binaryextra; q=0.5": false,
	} {
		if got := IsBinaryContentType(ct); got != want {
			t.Errorf("IsBinaryContentType(%q) = %v, want %v", ct, got, want)
		}
	}
}

// FuzzDecodeIngestRequest is the decoder's safety contract: arbitrary
// bytes must either decode cleanly or error — never panic, never hang —
// and anything that decodes must re-encode to a frame that decodes to the
// same events (the canonical-form round-trip).
func FuzzDecodeIngestRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeIngestRequest(nil))
	f.Add(EncodeIngestRequest(sampleEvents()))
	valid := EncodeIngestRequest(sampleEvents())
	f.Add(valid[:len(valid)/2])
	f.Add(EncodeIngestResponse(IngestResponse{Processed: 3, CoalescedWith: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := DecodeIngestRequest(data)
		// The domain-event decoder, over a dirty reused slice, agrees with
		// DecodeIngestRequest+ToEvents event for event and error for error.
		stale := []lifelog.Event{{UserID: 99, Action: 7}, {UserID: 98}, {UserID: 97}}
		domain, derr := DecodeIngestRequestEvents(stale[:1], data)
		if (err == nil) != (derr == nil) || (err != nil && err.Error() != derr.Error()) {
			t.Fatalf("DecodeIngestRequestEvents error %v, DecodeIngestRequest error %v", derr, err)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("non-ErrBadFrame error: %v", err)
			}
			return
		}
		if len(domain) != len(events) {
			t.Fatalf("DecodeIngestRequestEvents: %d events, DecodeIngestRequest %d", len(domain), len(events))
		}
		for i, e := range ToEvents(events) {
			if d := domain[i]; d.UserID != e.UserID || !d.Time.Equal(e.Time) || d.Type != e.Type ||
				d.Action != e.Action || d.Campaign != e.Campaign || math.Float32bits(d.Value) != math.Float32bits(e.Value) {
				t.Fatalf("DecodeIngestRequestEvents event %d: %+v, want %+v", i, d, e)
			}
		}
		// Encoding the domain events behind a prefix writes exactly
		// EncodeIngestRequest's bytes after it.
		prefix := []byte("keep")
		appended := AppendIngestRequestEvents(prefix, domain)
		if want := EncodeIngestRequest(events); !bytes.Equal(appended[len(prefix):], want) || string(appended[:len(prefix)]) != "keep" {
			t.Fatalf("AppendIngestRequestEvents = %x, want keep+%x", appended, want)
		}
		again, err := DecodeIngestRequest(EncodeIngestRequest(events))
		if err != nil {
			t.Fatalf("re-encode of decoded frame fails: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round-trip changed count: %d != %d", len(again), len(events))
		}
		for i := range events {
			a, b := events[i], again[i]
			// Compare bit patterns: NaN != NaN under ==.
			if a.UserID != b.UserID || a.TimeUnixNano != b.TimeUnixNano || a.Type != b.Type ||
				a.Action != b.Action || a.Campaign != b.Campaign ||
				math.Float32bits(a.Value) != math.Float32bits(b.Value) {
				t.Fatalf("round-trip changed event %d: %+v != %+v", i, a, b)
			}
		}
	})
}
