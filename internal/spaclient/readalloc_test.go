//go:build !race

package spaclient

import "testing"

// TestReadDecoderAllocs gates the decoders on spad's own bodies: each
// allocates only what it returns (go1.24, amd64) — the fallback to
// encoding/json would cost several times more. The race detector changes
// allocation counts, so the file builds only without it.
func TestReadDecoderAllocs(t *testing.T) {
	bodies := readBodies(t)
	for _, c := range []struct {
		name    string
		decode  func([]byte) error
		ceiling float64
	}{
		{"recommend", func(b []byte) error { _, err := decodeRecommend(b); return err }, 1},
		{"advice", func(b []byte) error { _, err := decodeAdvice(b, "training"); return err }, 4},
		{"sensibilities", func(b []byte) error { _, err := decodeSensibilities(b); return err }, 4},
		{"propensity", func(b []byte) error { _, err := decodePropensity(b); return err }, 0},
		{"select-top", func(b []byte) error { _, err := decodeSelectTop(b); return err }, 1},
	} {
		body := bodies[c.name]
		checkDecoders(t, body)
		got := testing.AllocsPerRun(200, func() {
			if err := c.decode(body); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s: %.1f allocs, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %.1f allocs, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
