//go:build !race

package wire

import "testing"

// TestReplWaveCodecAllocs pins the wave codec's reuse paths at zero
// allocations: a producer encoding each frame into one reused buffer, and
// a consumer decoding each frame's entries into one reused slice. The
// ceilings are the measured counts (go1.24, amd64); the race detector
// changes allocation counts, so the file builds only without it.
func TestReplWaveCodecAllocs(t *testing.T) {
	value := make([]byte, 600)
	w := ReplWave{LSN: 12345, Annotation: make([]byte, 40), Entries: []ReplEntry{
		{Key: []byte("sum/00000001"), Value: value},
		{Key: []byte("sum/00000002"), Value: value},
		{Key: []byte("sum/00000003"), Tombstone: true},
	}}
	buf := AppendReplWave(nil, w)
	frame := EncodeReplWave(w)
	entries := make([]ReplEntry, 0, len(w.Entries))
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"AppendReplWave, reused buffer", func() { buf = AppendReplWave(buf[:0], w) }},
		{"DecodeReplWaveInto, reused entries", func() {
			got, err := DecodeReplWaveInto(frame, entries)
			if err != nil || len(got.Entries) != len(w.Entries) {
				t.Fatalf("decode: %d entries, %v", len(got.Entries), err)
			}
			entries = got.Entries
		}},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > 0 {
			t.Errorf("%s: %.1f allocs, ceiling 0", c.name, got)
		} else {
			t.Logf("%s: %.1f allocs, ceiling 0", c.name, got)
		}
	}
}
