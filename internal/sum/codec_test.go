package sum

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzProfileCodec: whatever Decode accepts re-encodes to the bytes it
// consumed and decodes again to the same encoding, and the decoded float
// vectors never share writable storage — appending to Objective never
// writes into Subjective.
func FuzzProfileCodec(f *testing.F) {
	p := NewProfile(42, t0)
	p.Objective = []float64{30, 1, 0.5}
	p.Subjective = []float64{12, 0.25}
	f.Add(Encode(p))
	f.Add(Encode(NewProfile(7, t0)))
	p.Objective = nil
	f.Add(Encode(p))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		enc := Encode(p)
		if !bytes.HasPrefix(b, enc) {
			t.Fatalf("Encode(Decode(b)) = %x, not a prefix of b = %x", enc, b)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if !bytes.Equal(Encode(again), enc) {
			t.Fatal("second round trip changed the encoding")
		}
		sub := slices.Clone(p.Subjective)
		p.Objective = append(p.Objective, -1)
		for i := range sub {
			if math.Float64bits(p.Subjective[i]) != math.Float64bits(sub[i]) {
				t.Fatalf("appending to Objective changed Subjective[%d]: %v -> %v", i, sub[i], p.Subjective[i])
			}
		}
	})
}
