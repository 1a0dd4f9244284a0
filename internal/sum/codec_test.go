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
// writes into Subjective. DecodeInto agrees with Decode, error for error
// and field for field, whatever floats it is handed — nil, too short,
// exactly the vectors' length, or longer and dirty — over a dirty Profile,
// and its carved vectors keep the same no-sharing rule.
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
		checkDecodeInto(t, b, p, err)
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

// checkDecodeInto holds DecodeInto to Decode's result (want, wantErr) on b
// for each kind of floats buffer.
func checkDecodeInto(t *testing.T, b []byte, want *Profile, wantErr error) {
	t.Helper()
	n := 0
	if want != nil {
		n = len(want.Objective) + len(want.Subjective)
	}
	dirty := func(k int) []float64 {
		fs := make([]float64, k)
		for i := range fs {
			fs[i] = -7.5
		}
		return fs
	}
	for _, c := range []struct {
		name   string
		floats []float64
	}{
		{"nil", nil},
		{"short", dirty(n / 2)},
		{"exact", dirty(n)},
		{"long and dirty", dirty(n + 5)},
	} {
		got := NewProfile(99, t0)
		got.Objective, got.Subjective = []float64{1, 2}, []float64{3}
		err := DecodeInto(got, b, c.floats)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s floats: DecodeInto error %v, Decode error %v", c.name, err, wantErr)
		}
		if err != nil {
			continue
		}
		// The encoding covers every field but the attributes' own indices
		// and the location of UpdatedAt, bit for bit (NaN included).
		for i := range got.Emotional {
			if got.Emotional[i].Attribute != want.Emotional[i].Attribute {
				t.Fatalf("%s floats: DecodeInto attribute %d = %v, Decode %v", c.name, i, got.Emotional[i].Attribute, want.Emotional[i].Attribute)
			}
		}
		if !bytes.Equal(Encode(got), Encode(want)) || got.UpdatedAt != want.UpdatedAt ||
			len(got.Objective) != len(want.Objective) || len(got.Subjective) != len(want.Subjective) {
			t.Fatalf("%s floats: DecodeInto = %+v, Decode = %+v", c.name, got, want)
		}
		sub := slices.Clone(got.Subjective)
		got.Objective = append(got.Objective, -1)
		for i := range sub {
			if math.Float64bits(got.Subjective[i]) != math.Float64bits(sub[i]) {
				t.Fatalf("%s floats: appending to Objective changed Subjective[%d]", c.name, i)
			}
		}
	}
}
