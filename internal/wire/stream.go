package wire

// Stream framing for persistent-connection ingest. The PR 3 binary framing
// removed the codec cost from /v1/ingest but still pays one full HTTP
// request-response cycle per frame — connection bookkeeping, header parse,
// status line, response headers. A stream carries many SPAB frames over
// one long-lived connection instead:
//
//	uvarint frame length, then one SPAB frame (magic/version/kind/payload)
//
// repeated until either side drains. The frames themselves are the PR 3
// vocabulary — kind 0x01 ingest request, kind 0x02 ingest response —
// extended with four stream-control kinds the original header's kind byte
// reserved room for:
//
//	0x03 hello   server → client, once, first frame on every stream:
//	             uvarint credit (request frames the client may have in
//	             flight), uvarint max frame bytes.
//	0x04 credit  server → client: uvarint n — n more request frames may be
//	             sent. Credit is the stream's admission control: where the
//	             HTTP path answers a full queue with 503 + Retry-After, the
//	             stream simply stops granting credit until the queue has
//	             room, and the client's send window closes by itself.
//	0x05 drain   either direction, empty payload. Client → server: "no
//	             more requests; answer what you have, then close". Server →
//	             client: "stop sending; in-flight requests will still be
//	             answered, then the connection closes" — the shutdown path,
//	             so SIGTERM never strands an accepted frame.
//	0x06 error   server → client: uvarint status (the HTTP status the
//	             request would have received), then the message bytes. Sent
//	             in place of an ingest response — answers keep the
//	             request's wire order — or, with no requests outstanding,
//	             as a terminal refusal before close.
//
// Every ingest request frame is answered by exactly one response or error
// frame, in the order the requests arrived; control frames are not
// answered. Decoding malformed control frames returns ErrBadFrame-wrapped
// errors and never panics (FuzzDecodeStreamFrame).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// StreamProtocol names the protocol in the HTTP upgrade handshake on
// StreamPath (Upgrade: spa-stream/1). The same byte stream runs over a raw
// TCP connection (spad -stream-addr) without the handshake.
const StreamProtocol = "spa-stream/1"

// StreamPath is the HTTP upgrade endpoint for streamed ingest.
const StreamPath = "/v1/ingest/stream"

// maxStreamFrameLen bounds a stream frame when the caller does not supply
// a tighter limit — the same 8 MiB default the HTTP body cap uses.
const maxStreamFrameLen = 8 << 20

// StreamHello is the server's opening frame on every stream.
type StreamHello struct {
	// Credit is the client's initial send window: request frames that may
	// be in flight (sent but unanswered) at once.
	Credit int
	// MaxFrameBytes is the largest frame the server will read.
	MaxFrameBytes int64
}

// StreamError answers one request frame with a failure, carrying the HTTP
// status the request would have received on the per-request path so status
// handling stays one vocabulary across transports.
type StreamError struct {
	Status  int
	Message string
}

// Error implements error.
func (e *StreamError) Error() string {
	return fmt.Sprintf("wire: stream error %d: %s", e.Status, e.Message)
}

// FrameKind validates a frame's magic and version and returns its kind
// byte, so a stream endpoint can dispatch before decoding the payload.
func FrameKind(frame []byte) (byte, error) {
	if len(frame) < binaryHeaderLen {
		return 0, fmt.Errorf("%w: %d-byte frame shorter than header", ErrBadFrame, len(frame))
	}
	if [4]byte(frame[:4]) != binaryMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadFrame, frame[:4])
	}
	if frame[4] != binaryVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, frame[4])
	}
	return frame[5], nil
}

// WriteStreamFrame writes one length-prefixed frame. The caller flushes
// any buffering; a frame is not on the wire until its writer is.
func WriteStreamFrame(w io.Writer, frame []byte) error {
	var prefix []byte
	if bw, ok := w.(*bufio.Writer); ok {
		// The prefix goes into the writer's spare buffer: no allocation.
		prefix = binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(frame)))
	} else {
		prefix = binary.AppendUvarint(nil, uint64(len(frame)))
	}
	if _, err := w.Write(prefix); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// ReadStreamFrame reads one length-prefixed frame, refusing declared
// lengths above maxLen (<= 0 selects the 8 MiB default) before allocating.
// A clean close at a frame boundary surfaces as io.EOF; a connection cut
// mid-frame as io.ErrUnexpectedEOF.
func ReadStreamFrame(br *bufio.Reader, maxLen int64) ([]byte, error) {
	if maxLen <= 0 {
		maxLen = maxStreamFrameLen
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Clean close at the boundary, or a prefix torn mid-varint.
			return nil, err
		}
		// Overlong varint: framing garbage, not a connection condition.
		return nil, fmt.Errorf("%w: frame length prefix: %v", ErrBadFrame, err)
	}
	if n < binaryHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte frame shorter than header", ErrBadFrame, n)
	}
	if n > uint64(maxLen) {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds %d-byte limit", ErrBadFrame, n, maxLen)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(br, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return frame, nil
}

// MaxStreamCredit bounds a hello's credit grant — and therefore any
// server's stream window: DecodeStreamHello rejects grants outside
// (0, MaxStreamCredit], so a server must never advertise more.
const MaxStreamCredit = 1 << 20

// EncodeStreamHello frames the server's opening handshake.
func EncodeStreamHello(h StreamHello) []byte {
	buf := make([]byte, 0, binaryHeaderLen+2*binary.MaxVarintLen64)
	buf = appendBinaryHeader(buf, KindStreamHello)
	buf = binary.AppendUvarint(buf, uint64(h.Credit))
	return binary.AppendUvarint(buf, uint64(h.MaxFrameBytes))
}

// DecodeStreamHello parses a hello frame.
func DecodeStreamHello(frame []byte) (StreamHello, error) {
	payload, err := checkBinaryHeader(frame, KindStreamHello)
	if err != nil {
		return StreamHello{}, err
	}
	r := binReader{p: payload}
	credit, err := r.uvarint()
	if err != nil {
		return StreamHello{}, err
	}
	maxFrame, err := r.uvarint()
	if err != nil {
		return StreamHello{}, err
	}
	if credit == 0 || credit > MaxStreamCredit {
		return StreamHello{}, fmt.Errorf("%w: hello credit %d outside (0, 2^20]", ErrBadFrame, credit)
	}
	if maxFrame > 1<<40 {
		return StreamHello{}, fmt.Errorf("%w: hello max frame %d implausible", ErrBadFrame, maxFrame)
	}
	if len(r.p) != 0 {
		return StreamHello{}, fmt.Errorf("%w: %d trailing bytes after hello", ErrBadFrame, len(r.p))
	}
	return StreamHello{Credit: int(credit), MaxFrameBytes: int64(maxFrame)}, nil
}

// EncodeStreamCredit frames a grant of n more request frames.
func EncodeStreamCredit(n int) []byte {
	buf := make([]byte, 0, binaryHeaderLen+binary.MaxVarintLen64)
	buf = appendBinaryHeader(buf, KindStreamCredit)
	return binary.AppendUvarint(buf, uint64(n))
}

// DecodeStreamCredit parses a credit frame.
func DecodeStreamCredit(frame []byte) (int, error) {
	payload, err := checkBinaryHeader(frame, KindStreamCredit)
	if err != nil {
		return 0, err
	}
	r := binReader{p: payload}
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n == 0 || n > MaxStreamCredit {
		return 0, fmt.Errorf("%w: credit grant %d outside (0, 2^20]", ErrBadFrame, n)
	}
	if len(r.p) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after credit", ErrBadFrame, len(r.p))
	}
	return int(n), nil
}

// EncodeStreamDrain frames a drain announcement.
func EncodeStreamDrain() []byte {
	return appendBinaryHeader(make([]byte, 0, binaryHeaderLen), KindStreamDrain)
}

// DecodeStreamDrain validates a drain frame.
func DecodeStreamDrain(frame []byte) error {
	payload, err := checkBinaryHeader(frame, KindStreamDrain)
	if err != nil {
		return err
	}
	if len(payload) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after drain", ErrBadFrame, len(payload))
	}
	return nil
}

// maxStreamErrorMessage caps the message bytes an error frame carries.
const maxStreamErrorMessage = 4 << 10

// EncodeStreamError frames one request's failure.
func EncodeStreamError(status int, message string) []byte {
	if len(message) > maxStreamErrorMessage {
		message = message[:maxStreamErrorMessage]
	}
	buf := make([]byte, 0, binaryHeaderLen+binary.MaxVarintLen64+len(message))
	buf = appendBinaryHeader(buf, KindStreamError)
	buf = binary.AppendUvarint(buf, uint64(status))
	return append(buf, message...)
}

// DecodeStreamError parses an error frame.
func DecodeStreamError(frame []byte) (StreamError, error) {
	payload, err := checkBinaryHeader(frame, KindStreamError)
	if err != nil {
		return StreamError{}, err
	}
	r := binReader{p: payload}
	status, err := r.uvarint()
	if err != nil {
		return StreamError{}, err
	}
	if status < 100 || status > 599 {
		return StreamError{}, fmt.Errorf("%w: stream error status %d outside [100, 599]", ErrBadFrame, status)
	}
	if len(r.p) > maxStreamErrorMessage {
		return StreamError{}, fmt.Errorf("%w: %d-byte error message exceeds %d", ErrBadFrame, len(r.p), maxStreamErrorMessage)
	}
	return StreamError{Status: int(status), Message: string(r.p)}, nil
}
