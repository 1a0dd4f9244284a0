package cf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func buildMatrix(t *testing.T) *Interactions {
	t.Helper()
	m := NewInteractions(100)
	// Users 1,2 share actions (similar); user 3 is disjoint.
	add := func(u uint64, a uint32, w float64) {
		t.Helper()
		if err := m.Add(u, a, w); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 10, 1)
	add(1, 11, 2)
	add(1, 12, 1)
	add(2, 10, 1)
	add(2, 11, 1)
	add(2, 20, 1)
	add(3, 50, 3)
	add(3, 51, 1)
	m.Freeze()
	return m
}

func TestAddValidation(t *testing.T) {
	m := NewInteractions(10)
	if err := m.Add(0, 1, 1); err == nil {
		t.Fatal("zero user accepted")
	}
	if err := m.Add(1, 10, 1); err == nil {
		t.Fatal("out-of-universe action accepted")
	}
	if err := m.Add(1, 1, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := m.Add(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	m.Freeze()
	if err := m.Add(1, 2, 1); err != ErrFrozen {
		t.Fatalf("add after freeze: %v", err)
	}
}

func TestFreezeIdempotentAndCounts(t *testing.T) {
	m := buildMatrix(t)
	m.Freeze() // second freeze is a no-op
	if m.Users() != 3 {
		t.Fatalf("users %d", m.Users())
	}
	if m.Actions() != 100 {
		t.Fatalf("actions %d", m.Actions())
	}
	if m.NNZ() != 8 {
		t.Fatalf("nnz %d", m.NNZ())
	}
	ids := m.UserIDs()
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("user ids %v", ids)
	}
}

func TestRowAccumulatesWeight(t *testing.T) {
	m := NewInteractions(10)
	m.Add(1, 5, 1)
	m.Add(1, 5, 2.5)
	m.Freeze()
	actions, weights, ok := m.Row(1)
	if !ok || len(actions) != 1 || weights[0] != 3.5 {
		t.Fatalf("row: %v %v %v", actions, weights, ok)
	}
	if _, _, ok := m.Row(9); ok {
		t.Fatal("missing user has row")
	}
}

func TestCosine(t *testing.T) {
	m := buildMatrix(t)
	s12, err := m.Cosine(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s12 <= 0 || s12 > 1 {
		t.Fatalf("cosine(1,2)=%v", s12)
	}
	s13, _ := m.Cosine(1, 3)
	if s13 != 0 {
		t.Fatalf("disjoint users cosine %v", s13)
	}
	// Self-similarity is 1.
	s11, _ := m.Cosine(1, 1)
	if math.Abs(s11-1) > 1e-12 {
		t.Fatalf("self cosine %v", s11)
	}
	// Unknown users: similarity 0, no error.
	if s, err := m.Cosine(1, 999); err != nil || s != 0 {
		t.Fatalf("unknown user: %v %v", s, err)
	}
}

func TestJaccard(t *testing.T) {
	m := buildMatrix(t)
	// Users 1 {10,11,12}, 2 {10,11,20}: intersection 2, union 4.
	j, err := m.Jaccard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-0.5) > 1e-12 {
		t.Fatalf("jaccard %v want 0.5", j)
	}
	j13, _ := m.Jaccard(1, 3)
	if j13 != 0 {
		t.Fatalf("disjoint jaccard %v", j13)
	}
}

func TestQueriesBeforeFreeze(t *testing.T) {
	m := NewInteractions(5)
	m.Add(1, 1, 1)
	if _, err := m.Cosine(1, 1); err != ErrNotFrozen {
		t.Fatalf("cosine before freeze: %v", err)
	}
	if _, err := NewKNN(m, 3); err != ErrNotFrozen {
		t.Fatalf("knn before freeze: %v", err)
	}
	if _, err := TrainMF(m, DefaultMF()); err != ErrNotFrozen {
		t.Fatalf("mf before freeze: %v", err)
	}
}

func TestPopularity(t *testing.T) {
	m := buildMatrix(t)
	// Action 11 has weight 3 of total 11.
	if p := m.Popularity(11); math.Abs(p-3.0/11.0) > 1e-12 {
		t.Fatalf("popularity(11)=%v", p)
	}
	if m.Popularity(99) != 0 {
		t.Fatal("untouched action has popularity")
	}
	top := m.TopPopular(2)
	if len(top) != 2 || top[0] != 11 || top[1] != 50 {
		t.Fatalf("top popular %v", top)
	}
}

func TestKNNNeighbors(t *testing.T) {
	m := buildMatrix(t)
	knn, err := NewKNN(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	neigh, err := knn.Neighbors(1)
	if err != nil {
		t.Fatal(err)
	}
	// Only user 2 overlaps with user 1.
	if len(neigh) != 1 || neigh[0].UserID != 2 {
		t.Fatalf("neighbors %v", neigh)
	}
	// Unknown user: nil, no error.
	n2, err := knn.Neighbors(999)
	if err != nil || n2 != nil {
		t.Fatalf("unknown user neighbors: %v %v", n2, err)
	}
}

func TestKNNScoreAction(t *testing.T) {
	m := buildMatrix(t)
	knn, _ := NewKNN(m, 5)
	// User 1's neighbor (2) did action 20; score must be positive.
	s, err := knn.ScoreAction(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("score for neighbor action %v", s)
	}
	// Action nobody did scores 0.
	s, _ = knn.ScoreAction(1, 77)
	if s != 0 {
		t.Fatalf("unseen-by-all action scores %v", s)
	}
}

func TestKNNRecommendTopN(t *testing.T) {
	m := buildMatrix(t)
	knn, _ := NewKNN(m, 5)
	recs, err := knn.RecommendTopN(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	// Must exclude user 1's own actions.
	for _, r := range recs {
		if r.Action == 10 || r.Action == 11 || r.Action == 12 {
			t.Fatalf("recommended already-seen action %d", r.Action)
		}
	}
	// Best recommendation should be 20 (only neighbor action unseen).
	if recs[0].Action != 20 {
		t.Fatalf("top rec %v", recs[0])
	}
	if _, err := knn.RecommendTopN(1, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestKNNColdStartFallsBackToPopularity(t *testing.T) {
	m := buildMatrix(t)
	knn, _ := NewKNN(m, 5)
	recs, err := knn.RecommendTopN(999, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Action != 11 {
		t.Fatalf("cold-start recs %v", recs)
	}
}

func TestKNNParamValidation(t *testing.T) {
	m := buildMatrix(t)
	if _, err := NewKNN(m, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestMFLearnsStructure(t *testing.T) {
	// Two user blocks with disjoint action sets; MF must score within-block
	// actions higher than cross-block ones.
	r := rng.New(5)
	m := NewInteractions(40)
	for u := uint64(1); u <= 20; u++ {
		base := 0
		if u > 10 {
			base = 20
		}
		for i := 0; i < 8; i++ {
			a := uint32(base + r.Intn(20))
			m.Add(u, a, 1)
		}
	}
	m.Freeze()
	mf, err := TrainMF(m, DefaultMF())
	if err != nil {
		t.Fatal(err)
	}
	var within, across float64
	n := 0
	for u := uint64(1); u <= 10; u++ {
		for a := uint32(0); a < 20; a++ {
			within += mf.Score(u, a)
			across += mf.Score(u, a+20)
			n++
		}
	}
	if within/float64(n) <= across/float64(n) {
		t.Fatalf("MF block structure not learned: within %v across %v", within/float64(n), across/float64(n))
	}
}

func TestMFRecommendTopN(t *testing.T) {
	m := buildMatrix(t)
	mf, err := TrainMF(m, MFParams{Factors: 4, Epochs: 10, LearnRate: 0.05, Reg: 0.01, NegPerPos: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := mf.RecommendTopN(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("%d recs", len(recs))
	}
	for _, r := range recs {
		if r.Action == 10 || r.Action == 11 || r.Action == 12 {
			t.Fatalf("MF recommended seen action %d", r.Action)
		}
	}
	// Cold start.
	cold, err := mf.RecommendTopN(999, 2)
	if err != nil || len(cold) != 2 {
		t.Fatalf("cold start: %v %v", cold, err)
	}
	if _, err := mf.RecommendTopN(1, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestMFParamValidation(t *testing.T) {
	m := buildMatrix(t)
	bad := []MFParams{
		{Factors: 0, Epochs: 1, LearnRate: 0.1},
		{Factors: 2, Epochs: 0, LearnRate: 0.1},
		{Factors: 2, Epochs: 1, LearnRate: 0},
		{Factors: 2, Epochs: 1, LearnRate: 0.1, Reg: -1},
	}
	for i, p := range bad {
		if _, err := TrainMF(m, p); err == nil {
			t.Fatalf("bad params %d accepted", i)
		}
	}
}

// Property: cosine similarity is symmetric and within [0, 1] for
// non-negative weights.
func TestCosineSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := NewInteractions(30)
		for u := uint64(1); u <= 8; u++ {
			k := 1 + r.Intn(6)
			for i := 0; i < k; i++ {
				m.Add(u, uint32(r.Intn(30)), 1+r.Float64())
			}
		}
		m.Freeze()
		for a := uint64(1); a <= 8; a++ {
			for b := a + 1; b <= 8; b++ {
				sab, err1 := m.Cosine(a, b)
				sba, err2 := m.Cosine(b, a)
				if err1 != nil || err2 != nil {
					return false
				}
				if math.Abs(sab-sba) > 1e-12 || sab < 0 || sab > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKNNRecommend(b *testing.B) {
	r := rng.New(1)
	m := NewInteractions(984)
	z := rng.NewZipf(984, 1.05)
	for u := uint64(1); u <= 500; u++ {
		for i := 0; i < 30; i++ {
			m.Add(u, uint32(z.Draw(r)), 1)
		}
	}
	m.Freeze()
	knn, err := NewKNN(m, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knn.RecommendTopN(uint64(i%500+1), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMFScore(b *testing.B) {
	r := rng.New(1)
	m := NewInteractions(984)
	for u := uint64(1); u <= 200; u++ {
		for i := 0; i < 20; i++ {
			m.Add(u, uint32(r.Intn(984)), 1)
		}
	}
	m.Freeze()
	mf, err := TrainMF(m, MFParams{Factors: 8, Epochs: 3, LearnRate: 0.05, Reg: 0.01, NegPerPos: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mf.Score(uint64(i%200+1), uint32(i%984))
	}
}
