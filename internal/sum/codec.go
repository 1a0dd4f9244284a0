package sum

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/emotion"
	"repro/internal/store"
)

// Binary profile codec for the embedded store. Format (little-endian):
//
//	[8]  magic "SPASUM01"
//	[8]  user id
//	[8]  updatedAt unix-nanos
//	[4]  answered items
//	per emotional attribute (NumAttributes):
//	  [8] activation  [8] valence  [4] evidence
//	[4]  len(objective)   then float64s
//	[4]  len(subjective)  then float64s
//
// Versioned magic lets a future format change coexist with old data.

const profileMagic = "SPASUM01"

// ErrBadProfile is returned when decoding fails.
var ErrBadProfile = errors.New("sum: malformed profile record")

// Encode serializes the profile.
func Encode(p *Profile) []byte {
	return AppendEncode(make([]byte, 0, EncodedLen(p)), p)
}

// EncodedLen is the length of p's encoding.
func EncodedLen(p *Profile) int {
	return 8 + 8 + 8 + 4 + emotion.NumAttributes*20 + 4 + len(p.Objective)*8 + 4 + len(p.Subjective)*8
}

// AppendEncode appends p's encoding to buf.
func AppendEncode(buf []byte, p *Profile) []byte {
	buf = append(buf, profileMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, p.UserID)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.UpdatedAt.UnixNano()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.AnsweredItems))
	for _, s := range p.Emotional {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Activation))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(s.Valence)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Evidence))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Objective)))
	for _, v := range p.Objective {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Subjective)))
	for _, v := range p.Subjective {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// Decode parses a profile record into a fresh Profile whose two float
// vectors are allocations of their own.
func Decode(raw []byte) (*Profile, error) {
	p := &Profile{}
	if err := DecodeInto(p, raw, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses a profile record into p, overwriting every field.
// Objective, then Subjective, is carved out of what floats has left when it
// fits there, else allocated; a carved vector's capacity is capped at its
// length, so appending to one reallocates instead of writing into the
// other. p then aliases floats: the caller must not reuse floats while p is
// in use. On error p's contents are unspecified.
func DecodeInto(p *Profile, raw []byte, floats []float64) error {
	r := reader{buf: raw}
	magic := r.bytes(8)
	if magic == nil || string(magic) != profileMagic {
		return fmt.Errorf("%w: bad magic", ErrBadProfile)
	}
	p.UserID = r.u64()
	p.UpdatedAt = time.Unix(0, int64(r.u64())).UTC()
	p.AnsweredItems = int(r.u32())
	for i := range p.Emotional {
		p.Emotional[i].Attribute = emotion.Attribute(i)
		p.Emotional[i].Activation = math.Float64frombits(r.u64())
		p.Emotional[i].Valence = emotion.Valence(math.Float64frombits(r.u64()))
		p.Emotional[i].Evidence = int(r.u32())
	}
	nObj := int(r.u32())
	if r.failed || nObj < 0 || nObj > 1<<20 {
		return fmt.Errorf("%w: objective length", ErrBadProfile)
	}
	p.Objective, floats = carve(floats, nObj)
	for i := range p.Objective {
		p.Objective[i] = math.Float64frombits(r.u64())
	}
	nSub := int(r.u32())
	if r.failed || nSub < 0 || nSub > 1<<20 {
		return fmt.Errorf("%w: subjective length", ErrBadProfile)
	}
	p.Subjective, _ = carve(floats, nSub)
	for i := range p.Subjective {
		p.Subjective[i] = math.Float64frombits(r.u64())
	}
	if r.failed {
		return fmt.Errorf("%w: truncated", ErrBadProfile)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadProfile, err)
	}
	return nil
}

// carve returns an n-float vector with its capacity capped at n — the
// front of floats when it has room, else a fresh allocation — and what is
// left of floats. A nil floats always allocates, as Decode always has.
func carve(floats []float64, n int) (vec, rest []float64) {
	if floats == nil || n > len(floats) {
		return make([]float64, n), floats
	}
	return floats[:n:n], floats[n:]
}

type reader struct {
	buf    []byte
	failed bool
}

func (r *reader) bytes(n int) []byte {
	if r.failed || len(r.buf) < n {
		r.failed = true
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Key returns the store key for a user's profile.
func Key(userID uint64) []byte {
	return AppendKey(make([]byte, 0, KeyLen), userID)
}

// KeyLen is the length of every profile key.
const KeyLen = 12

// AppendKey appends userID's profile key to buf.
func AppendKey(buf []byte, userID uint64) []byte {
	buf = append(buf, "sum/"...)
	return binary.BigEndian.AppendUint64(buf, userID) // big-endian: ordered scans by user id
}

// Save persists the profile to the store.
func Save(db *store.DB, p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return db.Put(Key(p.UserID), Encode(p))
}

// Load reads a profile from the store; store.ErrNotFound passes through.
func Load(db *store.DB, userID uint64) (*Profile, error) {
	raw, err := db.Get(Key(userID))
	if err != nil {
		return nil, err
	}
	return Decode(raw)
}

// ForEach scans all stored profiles in user-id order.
func ForEach(db *store.DB, fn func(*Profile) bool) error {
	prefix := []byte("sum/")
	end := []byte("sum0") // '0' = '/'+1
	var decodeErr error
	err := db.Scan(prefix, end, func(_, v []byte) bool {
		p, err := Decode(v)
		if err != nil {
			decodeErr = err
			return false
		}
		return fn(p)
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}
