package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cf"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/sum"
)

// The recommendation function (§5.4 #1): "to send in an individualized
// manner the action with most probabilities of execution by the user."
// Collaborative filtering over the 984-action universe produces the base
// ranking; the SUM's advice-stage vector then re-weights actions whose
// emotional tags resonate with (or repel) the user — the paper's
// "activation or inhibition of excitatory attributes from each domain"
// applied to the action catalogue.
//
// Interaction counts live in the shard snapshots' buckets (snapshot.go): the
// ingest publish folds each wave's events into copy-on-write rows, each with
// its norm. A recommend ranks straight from the rows published at that
// moment — one pass over them, no model to build, nothing stale, no lock —
// and answers exactly what cf.KNN (k = neighbourK) built from the same
// events would. On top of that, a small per-shard cache remembers finished
// rankings, keyed to the exact (snapshot, generation) pair they were
// computed under: any write to the shard, any CF-weighted write anywhere and
// any tagger swap invalidate it wholesale.

// ErrNoInteractions is returned by RecommendActions before any interaction
// has been ingested — there is nothing for collaborative filtering to rank
// yet. Distinguishable from infrastructure failures so callers (the
// serving layer maps it to 409) can tell "retry after ingest" from "the
// server is broken".
var ErrNoInteractions = errors.New("core: no interactions ingested yet")

// neighbourK is the user-kNN neighbourhood size.
const neighbourK = 25

// ActionTagger maps an action ordinal to the emotional attributes its
// content exercises (e.g. a fast-paced bootcamp page → stimulated,
// impatient). A nil tagger disables emotional re-weighting.
type ActionTagger func(action uint32) []emotion.Attribute

// SetActionTagger installs the tagger used by RecommendActions. Cached
// rankings were computed with the previous tagger, so the generation is
// bumped after the store: a ranking still running under the old tagger
// loaded the generation before it, and its cache entry never matches again.
func (s *SPA) SetActionTagger(t ActionTagger) {
	if t == nil {
		s.tagger.Store(nil)
	} else {
		s.tagger.Store(&t)
	}
	s.invalidateRecommender()
}

// actionTagger loads the installed tagger (nil when none).
func (s *SPA) actionTagger() ActionTagger {
	if p := s.tagger.Load(); p != nil {
		return *p
	}
	return nil
}

// invalidateRecommender bumps the recommend generation: every ranking
// cached before it stops matching. Writers call it after publishing the CF
// rows it covers.
func (s *SPA) invalidateRecommender() {
	s.recGen.Add(1)
}

// interactionWeight grades event types for the CF matrix: transactions are
// stronger preference evidence than clicks.
func interactionWeight(t lifelog.EventType) float64 {
	switch t {
	case lifelog.EventEnroll:
		return 3
	case lifelog.EventInfoRequest:
		return 2
	case lifelog.EventClick:
		return 1
	case lifelog.EventPageView:
		return 0.5
	default:
		return 0
	}
}

// recCache is one shard's recommend cache: finished rankings valid only
// for the exact snapshot and generation they were computed under. The maps
// are immutable after publish; inserts CAS a rebuilt cache in and simply
// give up on contention (the cache is best-effort).
type recCache struct {
	snap    *shardSnap
	gen     uint64
	entries map[uint64]recEntry
}

// recEntry is one cached ranking, keyed by the n it was computed for.
type recEntry struct {
	n    int
	recs []cf.Recommendation
}

// recCacheCap bounds one shard's cache; a full cache restarts from the
// inserted entry (generational eviction — cheap, and ingest clears it
// anyway).
const recCacheCap = 128

// cacheInsert publishes a ranking into the shard cache, keyed to the
// snapshot and generation it was computed under. Lock-free: lost CAS races
// just skip the insert, and an entry under a superseded key is never read.
func (sh *shard) cacheInsert(snap *shardSnap, gen uint64, userID uint64, n int, recs []cf.Recommendation) {
	cur := sh.cache.Load()
	next := &recCache{snap: snap, gen: gen}
	if cur.snap == snap && cur.gen == gen && len(cur.entries) < recCacheCap {
		next.entries = make(map[uint64]recEntry, len(cur.entries)+1)
		for id, e := range cur.entries {
			next.entries[id] = e
		}
	} else {
		next.entries = make(map[uint64]recEntry, 1)
	}
	next.entries[userID] = recEntry{n: n, recs: append([]cf.Recommendation(nil), recs...)}
	sh.cache.CompareAndSwap(cur, next)
}

// RecommendActions returns the top-n actions for the user: the CF ranking
// re-weighted by the user's advice vector over the tagged attributes.
// Positive excitation boosts resonant actions; negative excitation
// (aversion) inhibits them.
func (s *SPA) RecommendActions(userID uint64, n int) ([]cf.Recommendation, error) {
	if n < 1 {
		return nil, errors.New("core: n must be >= 1")
	}
	// Generation before snapshots and tagger: a publish or tagger swap that
	// lands mid-ranking bumps it past gen, so the result is cached under a
	// key no later read matches — never wrongly fresh.
	gen := s.recGen.Load()
	// Identity before CF state: an unknown user is ErrNoProfile even on a
	// cold system where ranking would fail with ErrNoInteractions — callers
	// (and the serving layer's 404-vs-409 mapping) must not see a
	// registration question answered with a model answer.
	sh, c := s.locate(userID)
	snap := sh.snap.Load()
	p := snap.profile(c, userID)
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoProfile, userID)
	}
	if rc := sh.cache.Load(); rc.snap == snap && rc.gen == gen {
		if e, hit := rc.entries[userID]; hit && e.n == n {
			s.readCacheHits.Add(1)
			return append([]cf.Recommendation(nil), e.recs...), nil
		}
	}
	s.readCacheMisses.Add(1)
	recs, err := s.rankActions(snap, c, p, userID, n)
	if err != nil {
		return nil, err
	}
	sh.cacheInsert(snap, gen, userID, n, recs)
	return recs, nil
}

// rankActions runs the CF ranking and the emotional re-weighting for one
// frozen profile; snap is the user's shard snapshot at cell c.
func (s *SPA) rankActions(snap *shardSnap, c cell, p *sum.Profile, userID uint64, n int) ([]cf.Recommendation, error) {
	tagger := s.actionTagger()

	// Over-fetch so emotional re-ranking has candidates to promote.
	fetch := max(n*3, 10)
	recs, err := s.rankCF(snap, c, userID, fetch)
	if err != nil {
		return nil, err
	}
	if tagger != nil {
		adv := s.model.Advise(p, "training")
		for i := range recs {
			boost := 0.0
			for _, attr := range tagger(recs[i].Action) {
				if int(attr) >= 0 && int(attr) < emotion.NumAttributes {
					boost += adv.Excitation[attr]
				}
			}
			// 1 + boost keeps inhibition meaningful (boost can be negative)
			// without flipping score signs for mild aversions.
			factor := 1 + 0.8*boost
			if factor < 0.1 {
				factor = 0.1
			}
			recs[i].Score *= factor
		}
		slices.SortFunc(recs, cmpRec)
	}
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs, nil
}

// rankCF is cf.KNN.RecommendTopN with k = neighbourK for the user's row in
// snap at cell c, answered from the CF rows published right now.
//
// The user's row is scattered into a dense vector, so scoring another row
// is a gather over that row alone; the k best neighbours and the fetch best
// actions are selected by bounded heaps instead of sorting every candidate.
// Every interaction weight is a multiple of 0.5, so dot products, norms and
// popularity sums are exact in float64: the answer is bit-identical to
// cf.KNN's whatever order the shards are walked in
// (TestRecommendMatchesFrozenKNN).
func (s *SPA) rankCF(snap *shardSnap, c cell, userID uint64, fetch int) ([]cf.Recommendation, error) {
	var snapBuf [16]*shardSnap
	snaps := snapBuf[:0]
	for _, sh := range s.shards {
		snaps = append(snaps, sh.snap.Load())
	}
	pg := snap.buckets[c.bucket].rows[c.page]
	i, ok := slices.BinarySearchFunc(pg, userID, cmpRow)
	if !ok {
		return popular(snaps, fetch)
	}
	me := &pg[i]

	// q is the user's row, dense; q[a] > 0 marks a seen action.
	var q [lifelog.ActionUniverse]float64
	for _, aw := range me.row {
		q[aw.action] = aw.w
	}
	var nbuf [neighbourK]neighbour
	best := topK[neighbour]{h: nbuf[:], cmp: cmpNeighbour}
	for _, sn := range snaps {
		for _, bk := range sn.buckets {
			for _, pg := range bk.rows {
				for i := range pg {
					r := &pg[i]
					if r.id == userID {
						continue
					}
					var d float64
					for _, aw := range r.row {
						d += q[aw.action] * aw.w
					}
					if d != 0 {
						best.offer(neighbour{sim: d / (me.norm * r.norm), id: r.id, row: r.row})
					}
				}
			}
		}
	}

	// Score unseen actions in neighbour order, as RecommendTopN does.
	var scores [lifelog.ActionUniverse]float64
	var touched [lifelog.ActionUniverse]uint32
	nt := 0
	var simSum float64
	for _, nb := range best.sorted() {
		simSum += nb.sim
		for _, aw := range nb.row {
			if q[aw.action] > 0 {
				continue
			}
			if scores[aw.action] == 0 {
				touched[nt] = aw.action
				nt++
			}
			scores[aw.action] += nb.sim * aw.w
		}
	}
	top := topK[cf.Recommendation]{h: make([]cf.Recommendation, min(nt, fetch)), cmp: cmpRec}
	for _, a := range touched[:nt] {
		sc := scores[a]
		if simSum > 0 {
			sc /= simSum
		}
		top.offer(cf.Recommendation{Action: a, Score: sc})
	}
	return top.sorted(), nil
}

// popular is the cold-start answer for a user without a row: global
// popularity (an action's share of all interaction weight), summed over the
// rows on demand — cf.Interactions.TopPopular scored by Popularity.
func popular(snaps []*shardSnap, fetch int) ([]cf.Recommendation, error) {
	var pop [lifelog.ActionUniverse]float64
	var total float64
	for _, sn := range snaps {
		for _, bk := range sn.buckets {
			for _, pg := range bk.rows {
				for _, r := range pg {
					for _, aw := range r.row {
						pop[aw.action] += aw.w
						total += aw.w
					}
				}
			}
		}
	}
	if total == 0 {
		return nil, ErrNoInteractions
	}
	// Rank on the raw sums, then normalize, exactly as the reference does.
	top := topK[cf.Recommendation]{h: make([]cf.Recommendation, fetch), cmp: cmpRec}
	for a, w := range pop {
		if w > 0 {
			top.offer(cf.Recommendation{Action: uint32(a), Score: w})
		}
	}
	out := top.sorted()
	for i := range out {
		out[i].Score /= total
	}
	return out, nil
}

// neighbour is one candidate row of the kNN selection.
type neighbour struct {
	sim float64
	id  uint64
	row []actionWeight
}

// cmpNeighbour is cf.KNN.Neighbors' order: higher similarity first, then
// lower id.
func cmpNeighbour(a, b neighbour) int {
	return cmp.Or(cmp.Compare(b.sim, a.sim), cmp.Compare(a.id, b.id))
}

// cmpRec is the ranking order: higher score first, then lower action.
func cmpRec(a, b cf.Recommendation) int {
	return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Action, b.Action))
}

// topK keeps the len(h) best items offered to it — best first by cmp, a
// strict total order — in a binary heap h[:n] whose root is the worst kept.
type topK[T any] struct {
	h   []T
	n   int
	cmp func(a, b T) int
}

func (t *topK[T]) offer(c T) {
	h, i := t.h, 0
	if t.n < len(h) {
		i, t.n = t.n, t.n+1
		h[i] = c
		for p := (i - 1) / 2; i > 0 && t.cmp(h[p], h[i]) < 0; i, p = p, (p-1)/2 {
			h[p], h[i] = h[i], h[p]
		}
		return
	}
	if t.cmp(c, h[0]) >= 0 {
		return
	}
	h[0] = c
	for {
		w := 2*i + 1 // the worse child
		if w >= t.n {
			return
		}
		if w+1 < t.n && t.cmp(h[w], h[w+1]) < 0 {
			w++
		}
		if t.cmp(h[i], h[w]) > 0 {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// sorted returns the kept items best first, in the heap's own storage.
func (t *topK[T]) sorted() []T {
	kept := t.h[:t.n]
	slices.SortFunc(kept, t.cmp)
	return kept
}
