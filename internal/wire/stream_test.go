package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestStreamControlRoundTrip(t *testing.T) {
	hello := StreamHello{Credit: 32, MaxFrameBytes: 8 << 20}
	gotHello, err := DecodeStreamHello(EncodeStreamHello(hello))
	if err != nil || gotHello != hello {
		t.Fatalf("hello round-trip: %+v %v", gotHello, err)
	}
	n, err := DecodeStreamCredit(EncodeStreamCredit(7))
	if err != nil || n != 7 {
		t.Fatalf("credit round-trip: %d %v", n, err)
	}
	if err := DecodeStreamDrain(EncodeStreamDrain()); err != nil {
		t.Fatalf("drain round-trip: %v", err)
	}
	se, err := DecodeStreamError(EncodeStreamError(503, "draining"))
	if err != nil || se.Status != 503 || se.Message != "draining" {
		t.Fatalf("error round-trip: %+v %v", se, err)
	}
}

func TestStreamFrameReadWrite(t *testing.T) {
	var buf bytes.Buffer
	frames := [][]byte{
		EncodeStreamHello(StreamHello{Credit: 4, MaxFrameBytes: 1 << 20}),
		EncodeIngestRequest(sampleEvents()),
		EncodeIngestResponse(IngestResponse{Processed: 5, CoalescedWith: 2}),
		EncodeStreamCredit(1),
		EncodeStreamDrain(),
	}
	for range 2 {
		for _, f := range frames {
			if err := WriteStreamFrame(&buf, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	br := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadStreamFrame(br, 1<<20)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %x != %x", i, got, want)
		}
	}
	// The second copy reads into one reused buffer, too small at first: it
	// grows for the ingest request, and every later frame reuses it.
	reused := make([]byte, 3, 8)
	for i, want := range frames {
		got, err := ReadStreamFrameInto(br, 1<<20, reused)
		if err != nil {
			t.Fatalf("reused buffer, frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reused buffer, frame %d: %x != %x", i, got, want)
		}
		if i > 1 && &got[0] != &reused[:1][0] {
			t.Fatalf("reused buffer, frame %d: read into new storage", i)
		}
		reused = got
	}
	// Clean close at a frame boundary is io.EOF exactly.
	if _, err := ReadStreamFrame(br, 1<<20); err != io.EOF {
		t.Fatalf("boundary EOF: %v", err)
	}
}

func TestStreamFrameReadBounds(t *testing.T) {
	// Declared length above the limit must refuse before allocating.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f}) // uvarint ~268M
	if _, err := ReadStreamFrame(bufio.NewReader(&buf), 1<<20); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized declared length: %v", err)
	}
	// Shorter than a frame header.
	buf.Reset()
	WriteStreamFrame(&buf, []byte{1, 2, 3})
	if _, err := ReadStreamFrame(bufio.NewReader(&buf), 1<<20); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short frame: %v", err)
	}
	// Cut mid-frame: io.ErrUnexpectedEOF, never a short read treated as a
	// whole frame.
	buf.Reset()
	WriteStreamFrame(&buf, EncodeStreamDrain())
	half := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadStreamFrame(bufio.NewReader(bytes.NewReader(half)), 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: %v", err)
	}
}

func TestStreamControlRejectsMalformed(t *testing.T) {
	hello := EncodeStreamHello(StreamHello{Credit: 8, MaxFrameBytes: 1 << 20})
	credit := EncodeStreamCredit(3)
	drain := EncodeStreamDrain()
	serr := EncodeStreamError(400, "nope")

	cases := map[string]func() error{
		"hello wrong kind":      func() error { _, err := DecodeStreamHello(credit); return err },
		"hello truncated":       func() error { _, err := DecodeStreamHello(hello[:len(hello)-1]); return err },
		"hello trailing":        func() error { _, err := DecodeStreamHello(append(append([]byte{}, hello...), 0)); return err },
		"hello zero credit":     func() error { _, err := DecodeStreamHello(EncodeStreamHello(StreamHello{Credit: 0})); return err },
		"credit wrong kind":     func() error { _, err := DecodeStreamCredit(drain); return err },
		"credit zero":           func() error { _, err := DecodeStreamCredit(EncodeStreamCredit(0)); return err },
		"credit trailing":       func() error { _, err := DecodeStreamCredit(append(append([]byte{}, credit...), 1)); return err },
		"drain with payload":    func() error { return DecodeStreamDrain(append(append([]byte{}, drain...), 0)) },
		"error wrong kind":      func() error { _, err := DecodeStreamError(hello); return err },
		"error truncated":       func() error { _, err := DecodeStreamError(serr[:binaryHeaderLen]); return err },
		"error status too low":  func() error { _, err := DecodeStreamError(EncodeStreamError(42, "x")); return err },
		"error status too high": func() error { _, err := DecodeStreamError(EncodeStreamError(900, "x")); return err },
		"kind unknown to check": func() error {
			_, err := FrameKind([]byte("SPA?\x01\x01"))
			return err
		},
	}
	for name, fn := range cases {
		if err := fn(); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err %v, want ErrBadFrame", name, err)
		}
	}
	// FrameKind on a valid frame reports the kind without judging it.
	if kind, err := FrameKind(serr); err != nil || kind != KindStreamError {
		t.Fatalf("FrameKind: %#x %v", kind, err)
	}
}

// FuzzDecodeStreamFrame is the stream decoder's safety contract: arbitrary
// bytes fed through the stream reader and every control decoder must
// either parse cleanly or error — never panic, never over-read — and
// control frames that decode must re-encode canonically.
func FuzzDecodeStreamFrame(f *testing.F) {
	seed := func(frame []byte) {
		var buf bytes.Buffer
		WriteStreamFrame(&buf, frame)
		f.Add(buf.Bytes())
	}
	seed(EncodeStreamHello(StreamHello{Credit: 32, MaxFrameBytes: 8 << 20}))
	seed(EncodeStreamCredit(1))
	seed(EncodeStreamDrain())
	seed(EncodeStreamError(503, "draining"))
	seed(EncodeIngestRequest(sampleEvents()))
	f.Add([]byte{})
	f.Add([]byte{0x05, 'S', 'P', 'A', 'B'})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			frame, err := ReadStreamFrame(br, 1<<16)
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unexpected read error class: %v", err)
				}
				return
			}
			kind, err := FrameKind(frame)
			if err != nil {
				continue
			}
			switch kind {
			case KindStreamHello:
				if h, err := DecodeStreamHello(frame); err == nil {
					if !bytes.Equal(EncodeStreamHello(h), frame) {
						t.Fatalf("hello not canonical: %+v", h)
					}
				}
			case KindStreamCredit:
				if n, err := DecodeStreamCredit(frame); err == nil {
					if !bytes.Equal(EncodeStreamCredit(n), frame) {
						t.Fatalf("credit not canonical: %d", n)
					}
				}
			case KindStreamDrain:
				DecodeStreamDrain(frame)
			case KindStreamError:
				if se, err := DecodeStreamError(frame); err == nil {
					if !bytes.Equal(EncodeStreamError(se.Status, se.Message), frame) {
						t.Fatalf("error not canonical: %+v", se)
					}
				}
			case KindIngestRequest:
				DecodeIngestRequest(frame)
			case KindIngestResponse:
				DecodeIngestResponse(frame)
			}
		}
	})
}
