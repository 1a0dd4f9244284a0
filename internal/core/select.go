package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/svm"
)

// The selection function (§5.4): rank the whole population by calibrated
// response propensity. Pre-snapshot this was O(users) shard-lock
// round-trips per request (and a modelMu read per user); now a materialized
// propensity index is rebuilt single-flight per (snapshot epoch, model) and
// a request is a bounds-checked slice copy.

// propModel pairs the trained scorer with its feature scaler so readers
// take both with one atomic load and a ranking never mixes generations.
type propModel struct {
	scorer baseline.Scorer
	scaler *svm.Scaler
}

// ErrPartialSelection tags a SelectTop ranking that skipped profiles whose
// feature vectors the model could not score (dimension drift after
// re-registration, a corrupt profile). The ranking that IS returned is
// valid; errors.Is(err, ErrPartialSelection) distinguishes "ranked most of
// the population" from a failed request, and the typed
// *PartialSelectionError carries the skip count.
var ErrPartialSelection = errors.New("core: selection skipped unscorable profiles")

// PartialSelectionError details a partial SelectTop ranking.
type PartialSelectionError struct {
	// Skipped is how many registered profiles could not be scored.
	Skipped int
	// Cause is the first scoring failure encountered.
	Cause error
}

func (e *PartialSelectionError) Error() string {
	return fmt.Sprintf("%v: %d skipped (first cause: %v)", ErrPartialSelection, e.Skipped, e.Cause)
}

func (e *PartialSelectionError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrPartialSelection) match.
func (e *PartialSelectionError) Is(target error) bool { return target == ErrPartialSelection }

// propIndex is one materialized ranking: every scorable user, best first
// (ties by ascending ID), tagged with the snapshot epoch and model identity
// it was computed from.
type propIndex struct {
	epoch   uint64
	model   *propModel
	ids     []uint64
	skipped int
	cause   error
}

// Propensity returns the calibrated probability that the user responds to a
// touch — the selection function's ranking key.
func (s *SPA) Propensity(userID uint64) (float64, error) {
	pm := s.pmodel.Load()
	if pm == nil {
		return 0, ErrNoModel
	}
	p, err := s.viewProfile(userID)
	if err != nil {
		return 0, err
	}
	x := p.FeatureVector(true, true, true)
	if _, err := pm.scaler.Transform(x); err != nil {
		return 0, err
	}
	return pm.scorer.Score(x)
}

// SelectTop ranks all registered users by propensity and returns the top-k
// user IDs — the paper's selection function. Ties break by ascending ID.
// Unscorable profiles are skipped, not fatal: when any were, the ranking is
// returned together with a *PartialSelectionError (match with
// errors.Is(err, ErrPartialSelection)).
func (s *SPA) SelectTop(k int) ([]uint64, error) {
	if k < 1 {
		return nil, errors.New("core: k must be >= 1")
	}
	ix, err := s.currentPropIndex()
	if err != nil {
		return nil, err
	}
	if k > len(ix.ids) {
		k = len(ix.ids)
	}
	out := append([]uint64(nil), ix.ids[:k]...)
	if ix.skipped > 0 {
		return out, &PartialSelectionError{Skipped: ix.skipped, Cause: ix.cause}
	}
	return out, nil
}

// currentPropIndex returns a propensity index no staler than the newest
// fully built one: fresh (current epoch and model) when this reader wins or
// nobody is building, otherwise the previous index for the same model —
// bounded staleness instead of a rebuild stampede.
func (s *SPA) currentPropIndex() (*propIndex, error) {
	pm := s.pmodel.Load()
	if pm == nil {
		return nil, ErrNoModel
	}
	epoch := s.epoch.Load()
	if ix := s.prop.Load(); ix != nil && ix.model == pm && ix.epoch == epoch {
		return ix, nil
	}
	if s.propBuildMu.TryLock() {
		ix := s.rebuildPropIndexLocked(pm)
		s.propBuildMu.Unlock()
		return ix, nil
	}
	// A rebuild is in flight: serve the previous ranking for this model.
	if ix := s.prop.Load(); ix != nil && ix.model == pm {
		return ix, nil
	}
	// No index for this model yet; wait for the builder and recheck.
	s.propBuildMu.Lock()
	ix := s.rebuildPropIndexLocked(pm)
	s.propBuildMu.Unlock()
	return ix, nil
}

// rebuildPropIndexLocked builds (or reuses, when a racing builder got
// there first) the index for the current epoch. Caller holds propBuildMu.
func (s *SPA) rebuildPropIndexLocked(pm *propModel) *propIndex {
	// Epoch before reading snapshots: publishes that land mid-build make
	// the result conservatively stale, never wrongly fresh.
	epoch := s.epoch.Load()
	if ix := s.prop.Load(); ix != nil && ix.model == pm && ix.epoch == epoch {
		return ix
	}
	ids, skipped, cause := s.rankPopulation(pm)
	ix := &propIndex{epoch: epoch, model: pm, ids: ids, skipped: skipped, cause: cause}
	s.prop.Store(ix)
	return ix
}

// rankPopulation scores every resident profile with pm and returns the
// ids best first (ties by ascending id), skipping — and counting — the
// profiles pm cannot score. Each shard is scored from its snapshot,
// lock-free.
func (s *SPA) rankPopulation(pm *propModel) (ids []uint64, skipped int, cause error) {
	type scored struct {
		id    uint64
		score float64
	}
	all := make([]scored, 0, int(s.users.Load()))
	fail := func(err error) {
		skipped++
		if cause == nil {
			cause = err
		}
	}
	for _, sh := range s.shards {
		for _, bk := range sh.snap.Load().buckets {
			for _, pg := range bk.profiles {
				for _, e := range pg {
					x := e.p.FeatureVector(true, true, true)
					if _, err := pm.scaler.Transform(x); err != nil {
						fail(err)
						continue
					}
					v, err := pm.scorer.Score(x)
					if err != nil {
						fail(err)
						continue
					}
					all = append(all, scored{e.id, v})
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id < all[j].id
	})
	ids = make([]uint64, len(all))
	for i, sc := range all {
		ids[i] = sc.id
	}
	return ids, skipped, cause
}
