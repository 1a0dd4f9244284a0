package core

import (
	"fmt"

	"repro/internal/values"
)

// Human Values Scale integration (the fifth Fig. 3 component, see
// internal/values). Trackers are in-memory: the paper's deployment
// explicitly excluded this component, so the reproduction exposes it as a
// session-scoped extension rather than part of the durable profile.
// Trackers live in the user's shard, under the shard lock.

// tracker returns the user's values tracker; the caller holds the shard's
// write lock.
func (s *SPA) tracker(sh *shard, userID uint64, create bool) (*values.Tracker, error) {
	if s.residentLocked(sh, userID) == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoProfile, userID)
	}
	tr, ok := sh.trackers[userID]
	if !ok {
		if !create {
			return nil, fmt.Errorf("core: no value observations for user %d", userID)
		}
		if sh.trackers == nil {
			sh.trackers = make(map[uint64]*values.Tracker)
		}
		tr = values.NewTracker(nil, 0, s.clk.Now())
		sh.trackers[userID] = tr
	}
	return tr, nil
}

// ObserveValueAction folds a categorized action into the user's implicit
// Human Values Scale.
func (s *SPA) ObserveValueAction(userID uint64, category string, weight float64) error {
	sh := s.shardFor(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tr, err := s.tracker(sh, userID, true)
	if err != nil {
		return err
	}
	return tr.Observe(category, weight, s.clk.Now())
}

// SetExplicitValues records the user's stated value preferences.
func (s *SPA) SetExplicitValues(userID uint64, scale values.Scale) error {
	sh := s.shardFor(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tr, err := s.tracker(sh, userID, true)
	if err != nil {
		return err
	}
	tr.SetExplicit(scale)
	return nil
}

// ValuesScale returns the user's current implicit Human Values Scale.
func (s *SPA) ValuesScale(userID uint64) (values.Scale, error) {
	sh := s.shardFor(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tr, err := s.tracker(sh, userID, false)
	if err != nil {
		return values.Scale{}, err
	}
	return tr.Implicit(), nil
}

// ValuesCoherence evaluates the coherence function between the user's
// actions and stated preferences (§4 component 5b).
func (s *SPA) ValuesCoherence(userID uint64) (float64, error) {
	sh := s.shardFor(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tr, err := s.tracker(sh, userID, false)
	if err != nil {
		return 0, err
	}
	return tr.Coherence()
}
