package rng

import (
	"math"
	"testing"
)

// TestZipfPMFMatchesAnalytic pins the distribution itself: the PMF must be
// exactly the normalized power law 1/(rank+1)^s, sum to one, and decrease
// monotonically. A CDF construction bug (off-by-one in normalization, a
// dropped rank) would surface here before any sampling noise could mask it.
func TestZipfPMFMatchesAnalytic(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{10, 1.07}, {512, 1.07}, {984, 1.05}, {100, 2.0}, {1, 1.0}} {
		z := NewZipf(tc.n, tc.s)
		var norm float64
		for i := 0; i < tc.n; i++ {
			norm += 1 / math.Pow(float64(i+1), tc.s)
		}
		var total float64
		prev := math.Inf(1)
		for r := 0; r < tc.n; r++ {
			want := 1 / math.Pow(float64(r+1), tc.s) / norm
			got := z.PMF(r)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("n=%d s=%v rank %d: PMF %g, analytic %g", tc.n, tc.s, r, got, want)
			}
			if got > prev+1e-15 {
				t.Fatalf("n=%d s=%v: PMF not monotone at rank %d", tc.n, tc.s, r)
			}
			prev = got
			total += got
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("n=%d s=%v: PMF sums to %g", tc.n, tc.s, total)
		}
		if z.PMF(-1) != 0 || z.PMF(tc.n) != 0 {
			t.Fatalf("n=%d s=%v: out-of-range PMF not zero", tc.n, tc.s)
		}
	}
}

// TestZipfTopMassPinned pins the skew the scenario loadgen depends on: at
// s=1.07 over 512 ranks (the scenario replay's population), the top 1% of
// ranks must own the analytic share of the mass — a heavy-tailed ~27%, not
// a uniform 1%. The test compares the CDF (exact) and a 200k-draw sample (statistical)
// against the same analytic figure, so a biased Draw cannot hide behind a
// correct table or vice versa.
func TestZipfTopMassPinned(t *testing.T) {
	const (
		n = 512
		s = 1.07
	)
	top := n / 100 // top 1% = 5 ranks
	var num, den float64
	for i := 0; i < n; i++ {
		m := 1 / math.Pow(float64(i+1), s)
		den += m
		if i < top {
			num += m
		}
	}
	analytic := num / den
	if analytic < 0.2 || analytic > 0.4 {
		t.Fatalf("analytic top-1%% mass %g outside the expected heavy-tail band", analytic)
	}

	z := NewZipf(n, s)
	if exact := z.cdf[top-1]; math.Abs(exact-analytic) > 1e-12 {
		t.Fatalf("CDF top-1%% mass %g, analytic %g", exact, analytic)
	}

	const draws = 200_000
	r := New(1234)
	hits := 0
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.Draw(r)
		counts[k]++
		if k < top {
			hits++
		}
	}
	got := float64(hits) / draws
	// 3-sigma band for a Bernoulli(analytic) sum over 200k draws: ~0.3%.
	tol := 3 * math.Sqrt(analytic*(1-analytic)/draws)
	if math.Abs(got-analytic) > tol {
		t.Fatalf("sampled top-1%% mass %.4f, analytic %.4f (tol %.4f)", got, analytic, tol)
	}

	// Per-rank agreement for the head, where counts are large enough for a
	// tight relative bound: each of the top ranks within 5% of expectation.
	for k := 0; k < top; k++ {
		want := z.PMF(k) * draws
		if math.Abs(float64(counts[k])-want) > 0.05*want {
			t.Fatalf("rank %d drawn %d times, expected %.0f", k, counts[k], want)
		}
	}
	// And every rank must be reachable in principle: the CDF is strictly
	// increasing, so no rank is shadowed by its neighbor.
	for k := 1; k < n; k++ {
		if !(z.cdf[k] > z.cdf[k-1]) {
			t.Fatalf("CDF not strictly increasing at rank %d", k)
		}
	}
}
