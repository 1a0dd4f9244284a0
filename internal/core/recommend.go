package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

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
// ingest publish folds each wave's events into copy-on-write rows, so the
// kNN build iterates frozen state without a single lock. The frozen model
// itself is rebuilt single-flight per invalidation generation: the first
// reader to observe a stale model rebuilds it under recBuildMu while
// concurrent readers keep serving the previous model (bounded staleness —
// at most the waves ingested since that build), so an ingest can never
// stampede the read path into N parallel rebuilds. On top of the model, a
// small per-shard cache remembers finished rankings; it is keyed to the
// exact (snapshot, model) pair, so any write to the shard or model rebuild
// invalidates it wholesale.

// ErrNoInteractions is returned by RecommendActions before any interaction
// has been ingested — there is nothing for collaborative filtering to rank
// yet. Distinguishable from infrastructure failures so callers (the
// serving layer maps it to 409) can tell "retry after ingest" from "the
// server is broken".
var ErrNoInteractions = errors.New("core: no interactions ingested yet")

// ActionTagger maps an action ordinal to the emotional attributes its
// content exercises (e.g. a fast-paced bootcamp page → stimulated,
// impatient). A nil tagger disables emotional re-weighting.
type ActionTagger func(action uint32) []emotion.Attribute

// SetActionTagger installs the tagger used by RecommendActions. Cached
// rankings were computed with the previous tagger, so every shard's
// recommend cache is dropped.
func (s *SPA) SetActionTagger(t ActionTagger) {
	if t == nil {
		s.tagger.Store(nil)
	} else {
		s.tagger.Store(&t)
	}
	for _, sh := range s.shards {
		sh.cache.Store(&recCache{})
	}
}

// actionTagger loads the installed tagger (nil when none).
func (s *SPA) actionTagger() ActionTagger {
	if p := s.tagger.Load(); p != nil {
		return *p
	}
	return nil
}

// invalidateRecommender marks the frozen kNN model stale; the next
// RecommendActions call rebuilds it (single-flight) from the shard
// snapshots' interaction counts.
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

// recState is one frozen kNN model tagged with the invalidation generation
// it was built at.
type recState struct {
	knn *cf.KNN
	gen uint64
}

// recCache is one shard's recommend cache: finished rankings valid only
// for the exact snapshot and model identity they were computed under. The
// maps are immutable after publish; inserts CAS a rebuilt cache in and
// simply give up on contention (the cache is best-effort).
type recCache struct {
	snap    *shardSnap
	knn     *cf.KNN
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
// snapshot and model it was computed from. Lock-free: lost CAS races and
// stale snapshots just skip the insert.
func (sh *shard) cacheInsert(snap *shardSnap, knn *cf.KNN, userID uint64, n int, recs []cf.Recommendation) {
	cur := sh.cache.Load()
	next := &recCache{snap: snap, knn: knn}
	if cur != nil && cur.snap == snap && cur.knn == knn && len(cur.entries) < recCacheCap {
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

// buildKNN freezes the shard snapshots' accumulated interactions into a
// kNN model. Lock-free: snapshots are immutable, so no shard lock is taken
// and no lock order exists between the model build and the write path
// (lockShards is the LockedReads twin). The rows already exist sorted by
// action, so they go straight into a cf.Builder in user order instead of
// through per-user maps.
func (s *SPA) buildKNN(lockShards bool) (*cf.KNN, error) {
	rows := make([]rowEntry, 0, s.users.Load())
	nnz := 0
	for _, sh := range s.shards {
		if lockShards {
			sh.mu.RLock()
		}
		for _, bk := range sh.snap.Load().buckets {
			for _, pg := range bk.rows {
				rows = append(rows, pg...)
				for _, r := range pg {
					nnz += len(r.row)
				}
			}
		}
		if lockShards {
			sh.mu.RUnlock()
		}
	}
	if len(rows) == 0 {
		return nil, ErrNoInteractions
	}
	slices.SortFunc(rows, func(a, b rowEntry) int { return cmp.Compare(a.id, b.id) })
	b := cf.NewBuilder(lifelog.ActionUniverse, len(rows), nnz)
	for _, r := range rows {
		for _, aw := range r.row {
			if err := b.Add(r.id, aw.action, aw.w); err != nil {
				return nil, err
			}
		}
	}
	return cf.NewKNN(b.Freeze(), 25)
}

// currentKNN returns a model no staler than the newest finished build:
// fresh when this reader wins the rebuild (or nobody is rebuilding),
// otherwise the previous generation's model — bounded staleness, never a
// stampede.
func (s *SPA) currentKNN() (*cf.KNN, error) {
	gen := s.recGen.Load()
	if st := s.rec.Load(); st != nil && st.gen == gen {
		return st.knn, nil
	}
	if s.recBuildMu.TryLock() {
		knn, err := s.rebuildKNNLocked()
		s.recBuildMu.Unlock()
		return knn, err
	}
	// A rebuild is in flight: serve the previous model.
	if st := s.rec.Load(); st != nil {
		return st.knn, nil
	}
	// No model has ever been built; wait for the builder and recheck.
	s.recBuildMu.Lock()
	knn, err := s.rebuildKNNLocked()
	s.recBuildMu.Unlock()
	return knn, err
}

// rebuildKNNLocked builds (or reuses, when a racing builder got there
// first) the model for the current generation. Caller holds recBuildMu.
func (s *SPA) rebuildKNNLocked() (*cf.KNN, error) {
	// Generation before snapshots: a publish landing mid-build makes the
	// result conservatively stale, never wrongly fresh.
	gen := s.recGen.Load()
	if st := s.rec.Load(); st != nil && st.gen == gen {
		return st.knn, nil
	}
	knn, err := s.buildKNN(false)
	if err != nil {
		return nil, err
	}
	s.rec.Store(&recState{knn: knn, gen: gen})
	s.knnRebuilds.Add(1)
	return knn, nil
}

// RecommendActions returns the top-n actions for the user: the CF ranking
// re-weighted by the user's advice vector over the tagged attributes.
// Positive excitation boosts resonant actions; negative excitation
// (aversion) inhibits them.
func (s *SPA) RecommendActions(userID uint64, n int) ([]cf.Recommendation, error) {
	if n < 1 {
		return nil, errors.New("core: n must be >= 1")
	}
	if s.lockedReads {
		return s.recommendActionsLocked(userID, n)
	}
	// Identity before model state: an unknown user is ErrNoProfile even on
	// a cold system where the kNN build would fail with ErrNoInteractions —
	// callers (and the serving layer's 404-vs-409 mapping) must not see a
	// registration question answered with a model answer.
	sh, c := s.locate(userID)
	snap := sh.snap.Load()
	p := snap.profile(c, userID)
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoProfile, userID)
	}
	knn, err := s.currentKNN()
	if err != nil {
		return nil, err
	}
	if c := sh.cache.Load(); c != nil && c.snap == snap && c.knn == knn {
		if e, hit := c.entries[userID]; hit && e.n == n {
			s.readCacheHits.Add(1)
			return append([]cf.Recommendation(nil), e.recs...), nil
		}
	}
	s.readCacheMisses.Add(1)
	recs, err := s.rankActions(knn, p, userID, n)
	if err != nil {
		return nil, err
	}
	sh.cacheInsert(snap, knn, userID, n, recs)
	return recs, nil
}

// recommendActionsLocked is the pre-snapshot read path (Options.
// LockedReads): profile and advice under the shard read lock, then a
// stampeding rebuild — every reader that finds the model stale rebuilds it
// while holding the build mutex and the shard read locks, exactly the
// contention the snapshot path removes. No cache.
func (s *SPA) recommendActionsLocked(userID uint64, n int) ([]cf.Recommendation, error) {
	sh, c := s.locate(userID)
	sh.mu.RLock()
	p := sh.snap.Load().profile(c, userID)
	var cp sum.Profile
	if p != nil {
		cp = *p
	}
	sh.mu.RUnlock()
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoProfile, userID)
	}
	s.recBuildMu.Lock()
	gen := s.recGen.Load()
	st := s.rec.Load()
	if st == nil || st.gen != gen {
		knn, err := s.buildKNN(true)
		if err != nil {
			s.recBuildMu.Unlock()
			return nil, err
		}
		st = &recState{knn: knn, gen: gen}
		s.rec.Store(st)
		s.knnRebuilds.Add(1)
	}
	knn := st.knn
	s.recBuildMu.Unlock()
	return s.rankActions(knn, &cp, userID, n)
}

// rankActions runs the model query and the emotional re-weighting for one
// frozen profile.
func (s *SPA) rankActions(knn *cf.KNN, p *sum.Profile, userID uint64, n int) ([]cf.Recommendation, error) {
	adv := s.model.Advise(p, "training")
	tagger := s.actionTagger()

	// Over-fetch so emotional re-ranking has candidates to promote.
	fetch := n * 3
	if fetch < 10 {
		fetch = 10
	}
	recs, err := knn.RecommendTopN(userID, fetch)
	if err != nil {
		return nil, err
	}
	if tagger != nil {
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
		sortRecs(recs)
	}
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs, nil
}

func sortRecs(recs []cf.Recommendation) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Score != recs[j].Score {
			return recs[i].Score > recs[j].Score
		}
		return recs[i].Action < recs[j].Action
	})
}
