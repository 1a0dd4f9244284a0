// Package core is the Smart Prediction Assistant (SPA) facade: the public
// API a downstream application uses. It wires the four deployed components
// of the paper's Fig. 3 around a persistent profile store:
//
//  1. LifeLogs Pre-processor Agent — BatchIngest runs raw events
//     through session/feature extraction, fanned out over at most
//     GOMAXPROCS workers,
//  2. Smart Component — TrainPropensity / Propensity wrap the calibrated
//     linear SVM,
//  3. Attributes Manager Agent — Sensibilities / DominantAttributes expose
//     automatic relevance weights,
//  4. Messaging Agent — AssignMessage generates the individualized
//     emotional argument.
//
// The fifth component (Intelligent User Interface / Human Values Scale) is
// out of scope, exactly as in the paper's deployment (§4).
//
// Profiles live in hash-partitioned shards, each guarded by its own
// read-write mutex, so mutations of different users proceed in parallel
// (see shard.go and DESIGN.md). Profiles are write-through: every mutation
// is persisted to the embedded store — one WAL record and one WAL sync per
// wave on the ingest path — so a restarted process resumes with the same
// Smart User Models.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/attributes"
	"repro/internal/baseline"
	"repro/internal/clock"
	"repro/internal/emotion"
	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/messaging"
	"repro/internal/store"
	"repro/internal/sum"
	"repro/internal/svm"
)

// Options configure a SPA instance.
type Options struct {
	// DataDir is the storage directory for profiles. Empty selects an
	// in-memory-only instance (no durability).
	DataDir string
	// Store tunes the embedded store when DataDir is set; the zero value
	// selects store defaults (background compaction on).
	Store store.Options
	// Shards is the number of profile partitions; concurrent calls touching
	// users in different shards never contend. Zero selects 16; values
	// round up to the next power of two. One shard reproduces the old
	// single-mutex behavior exactly.
	Shards int
	// Params tune the SUM learning dynamics; zero value selects defaults.
	Params sum.Params
	// Clock is the time source; nil selects the wall clock.
	Clock clock.Clock
	// SensibilityThreshold feeds the Messaging Agent; zero selects 0.30.
	SensibilityThreshold float64
	// Policy is the multi-match messaging rule (default BySensibility,
	// the paper's case 3.c.ii).
	Policy messaging.Policy
	// ActionTagger tags actions with the emotional attributes
	// RecommendActions re-weights them by; nil ranks by CF alone.
	ActionTagger ActionTagger
}

// SPA is the Smart Prediction Assistant. All methods are safe for
// concurrent use.
type SPA struct {
	db        *store.DB // nil when non-durable
	model     *sum.Model
	msgdb     *messaging.DB
	registry  *attributes.Registry
	clk       clock.Clock
	threshold float64
	policy    messaging.Policy
	tagger    ActionTagger

	shards []*shard
	mask   uint64
	// bucketShift places a user in its shard snapshot's buckets (place).
	bucketShift uint
	// users mirrors the total profile count so Users() never touches the
	// shard locks — health probes must answer even while a commit holds a
	// shard write-locked through a slow fsync.
	users atomic.Int64

	// epoch is the read-snapshot generation: 1 after New, +1 per shard
	// publish (snapshot.go).
	epoch atomic.Uint64

	// Propensity-model state, replaced wholesale by TrainPropensity;
	// readers load the pair with one atomic load (select.go).
	pmodel atomic.Pointer[propModel]
	// prop is the materialized propensity ranking SelectTop serves from,
	// rebuilt single-flight per (epoch, model) under propBuildMu.
	prop        atomic.Pointer[propIndex]
	propBuildMu sync.Mutex

	// The recommend cache's stripes (recommend.go).
	recs [recStripes]atomic.Pointer[recStripe]

	// Read-path counters (snapshot.go ReadStats).
	readCacheHits   atomic.Uint64
	readCacheMisses atomic.Uint64
	rankIndexHits   atomic.Uint64
	rankIndexMisses atomic.Uint64
	rankIndexBuilds atomic.Uint64
}

// ErrNoProfile is returned for operations on unregistered users.
var ErrNoProfile = errors.New("core: no such user profile")

// ErrNoModel is returned by Propensity before TrainPropensity has run.
var ErrNoModel = errors.New("core: propensity model not trained")

// ErrAlreadyRegistered is returned by Register for an existing user.
var ErrAlreadyRegistered = errors.New("core: user already registered")

// New creates (or reopens) a SPA instance.
func New(opts Options) (*SPA, error) {
	params := opts.Params
	if params == (sum.Params{}) {
		params = sum.DefaultParams()
	}
	model, err := sum.NewModel(params, nil)
	if err != nil {
		return nil, err
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.Wall{}
	}
	threshold := opts.SensibilityThreshold
	if threshold == 0 {
		threshold = 0.30
	}
	s := &SPA{
		model:     model,
		msgdb:     messaging.NewDB(),
		registry:  defaultRegistry(),
		clk:       clk,
		threshold: threshold,
		policy:    opts.Policy,
		tagger:    opts.ActionTagger,
	}
	n := shardCount(opts.Shards)
	s.mask = uint64(n - 1)
	s.bucketShift = bucketShift(n)
	s.shards = make([]*shard, n)
	for i := range s.shards {
		s.shards[i] = newShard(keyspace.NumSlots >> s.bucketShift)
	}
	if opts.DataDir != "" {
		db, err := store.Open(opts.DataDir, opts.Store)
		if err != nil {
			return nil, err
		}
		s.db = db
		loaded := make([][]profChange, n)
		if err := sum.ForEach(db, func(p *sum.Profile) bool {
			i := s.shardIndexFor(p.UserID)
			loaded[i] = append(loaded[i], profChange{id: p.UserID, p: p})
			return true
		}); err != nil {
			db.Close()
			return nil, fmt.Errorf("core: loading profiles: %w", err)
		}
		// Nothing else can see s yet, so the shards need no locking.
		for i, sh := range s.shards {
			s.publishShardLocked(sh, loaded[i], nil, nil)
		}
	}
	// The replay's publishes do not count: a fresh process starts at 1.
	s.epoch.Store(1)
	return s, nil
}

// defaultRegistry declares the attribute vocabulary: objective
// socio-demographics, the LifeLog subjective digest, and the ten emotional
// attributes of the deployment.
func defaultRegistry() *attributes.Registry {
	r := attributes.NewRegistry()
	for _, n := range []string{
		"obj_age", "obj_gender", "obj_education", "obj_employment",
		"obj_income_band", "obj_city_size", "obj_prior_courses", "obj_tenure_months",
	} {
		r.MustRegister(attributes.Def{Name: n, Kind: attributes.Objective, Domain: "training"})
	}
	for _, n := range lifelog.DenseNames() {
		r.MustRegister(attributes.Def{Name: n, Kind: attributes.Subjective, Domain: "training"})
	}
	for _, a := range emotion.AllAttributes() {
		r.MustRegister(attributes.Def{Name: "emo_" + a.String(), Kind: attributes.Emotional, Domain: "training"})
	}
	return r
}

// Registry exposes the attribute vocabulary.
func (s *SPA) Registry() *attributes.Registry { return s.registry }

// Close flushes and releases the store. Close is idempotent; mutations
// after Close fail with the store's ErrClosed.
func (s *SPA) Close() error {
	if s.db != nil {
		return s.db.Close()
	}
	return nil
}

// Register creates a Smart User Model for a new user with the given
// objective attributes. Registering an existing user is an error.
func (s *SPA) Register(userID uint64, objective []float64) error {
	if userID == 0 {
		return errors.New("core: zero user id")
	}
	return s.writeProfile(userID, func(cur *sum.Profile) (*sum.Profile, error) {
		if cur != nil {
			return nil, fmt.Errorf("%w: %d", ErrAlreadyRegistered, userID)
		}
		p := sum.NewProfile(userID, s.clk.Now())
		p.Objective = append([]float64(nil), objective...)
		p.Subjective = make([]float64, lifelog.DenseLen)
		return p, nil
	})
}

// updateProfile runs a single-profile mutation on a private copy of the
// user's current profile, then persists and installs the copy.
func (s *SPA) updateProfile(userID uint64, mutate func(p *sum.Profile) error) error {
	return s.writeProfile(userID, func(cur *sum.Profile) (*sum.Profile, error) {
		if cur == nil {
			return nil, fmt.Errorf("%w: %d", ErrNoProfile, userID)
		}
		p := *cur
		if err := mutate(&p); err != nil {
			return nil, err
		}
		return &p, nil
	})
}

// writeProfile is the single-profile commit, one group through
// commitGroups: under the shard's write lock, next derives the user's new
// profile from the resident one (nil when absent); the new profile is
// written through to the store and, only once that succeeded, installed in
// the shard's next snapshot — a failed write leaves the read state exactly
// as it was. The shard lock orders store writes for the user.
func (s *SPA) writeProfile(userID uint64, next func(cur *sum.Profile) (*sum.Profile, error)) error {
	i, c := s.place(userID)
	var change [1]profChange
	groups := [1]preparedGroup{{shardIdx: i}}
	return s.commitGroups(groups[:], func() error {
		p, err := next(s.shards[i].snap.Load().profile(c, userID))
		if err != nil {
			return err
		}
		if s.db != nil {
			if err := sum.Save(s.db, p); err != nil {
				return err
			}
		}
		change[0] = profChange{id: userID, p: p}
		groups[0].digests = change[:]
		return nil
	})
}

// Users returns the number of registered profiles. Lock-free by design:
// /healthz reports it, and a liveness probe that can block behind a shard
// write lock (held across a stalled fsync) would report the disk's health,
// not the process's.
func (s *SPA) Users() int {
	return int(s.users.Load())
}

// Profile returns a copy of the user's SUM (callers cannot mutate internal
// state).
func (s *SPA) Profile(userID uint64) (sum.Profile, error) {
	p, err := s.viewProfile(userID)
	if err != nil {
		return sum.Profile{}, err
	}
	cp := *p
	cp.Objective = append([]float64(nil), p.Objective...)
	cp.Subjective = append([]float64(nil), p.Subjective...)
	return cp, nil
}

// NextQuestion returns the user's next Gradual EIT item (cycling the bank
// when exhausted, as the deployment keeps asking indefinitely).
func (s *SPA) NextQuestion(userID uint64) (emotion.Item, error) {
	p, err := s.viewProfile(userID)
	if err != nil {
		return emotion.Item{}, err
	}
	item, err := s.model.NextItem(p)
	if errors.Is(err, emotion.ErrExhausted) {
		return s.model.Bank().Item(p.AnsweredItems % s.model.Bank().Len())
	}
	return item, err
}

// SubmitAnswer applies a Gradual EIT answer to the user's SUM.
func (s *SPA) SubmitAnswer(userID uint64, ans emotion.Answer) error {
	return s.updateProfile(userID, func(p *sum.Profile) error {
		return s.model.ApplyEITAnswer(p, ans, s.clk.Now())
	})
}

// Reward applies positive reinforcement for the given attributes (the user
// acted on a recommendation built on them).
func (s *SPA) Reward(userID uint64, attrs []emotion.Attribute) error {
	return s.updateProfile(userID, func(p *sum.Profile) error {
		s.model.Reward(p, attrs, s.clk.Now())
		return nil
	})
}

// Punish applies negative reinforcement (recommendation ignored/rejected).
func (s *SPA) Punish(userID uint64, attrs []emotion.Attribute) error {
	return s.updateProfile(userID, func(p *sum.Profile) error {
		s.model.Punish(p, attrs, s.clk.Now())
		return nil
	})
}

// Sensibilities returns the user's absolute sensibility weights, indexed by
// emotion.Attribute.
func (s *SPA) Sensibilities(userID uint64) ([]float64, error) {
	p, err := s.viewProfile(userID)
	if err != nil {
		return nil, err
	}
	return s.model.Sensibilities(p), nil
}

// DominantAttributes reports the user's dominant emotional attributes
// (relative weights above the threshold), strongest first.
func (s *SPA) DominantAttributes(userID uint64) ([]attributes.Sensibility, error) {
	p, err := s.viewProfile(userID)
	if err != nil {
		return nil, err
	}
	return attributes.DominantAttributes(s.model.RelativeSensibilities(p), 0.5), nil
}

// Advise returns the SUM advice-stage excitation/inhibition vector for a
// domain.
func (s *SPA) Advise(userID uint64, domain string) (sum.Advice, error) {
	p, err := s.viewProfile(userID)
	if err != nil {
		return sum.Advice{}, err
	}
	return s.model.Advise(p, domain), nil
}

// AssignMessage runs the Messaging Agent for a product (§5.3).
func (s *SPA) AssignMessage(userID uint64, product messaging.Product) (messaging.Assignment, error) {
	p, err := s.viewProfile(userID)
	if err != nil {
		return messaging.Assignment{}, err
	}
	return s.msgdb.Assign(product, s.model.Sensibilities(p), s.threshold, s.policy)
}

// StoreStats snapshots the embedded store's internals for health/metrics
// reporting; ok is false on an in-memory-only instance.
func (s *SPA) StoreStats() (st store.Stats, ok bool) {
	if s.db == nil {
		return store.Stats{}, false
	}
	return s.db.Stats(), true
}

// SetStoreObserver installs (or removes, with nil) the embedded store's
// engine observer — the serving layer's hook for WAL-sync and compaction
// latency. A no-op on an in-memory instance.
func (s *SPA) SetStoreObserver(o store.Observer) {
	if s.db != nil {
		s.db.SetObserver(o)
	}
}

// FeatureVector materializes a user's full learner input (objective +
// subjective + emotional blocks).
func (s *SPA) FeatureVector(userID uint64) ([]float64, error) {
	p, err := s.viewProfile(userID)
	if err != nil {
		return nil, err
	}
	return p.FeatureVector(true, true, true), nil
}

// TrainPropensity fits the Smart Component's propensity model from labelled
// examples: user feature vectors (as returned by FeatureVector) and
// responded flags. Training runs without touching the profile shards, so
// ingest traffic continues in parallel; the fitted model is installed
// atomically at the end.
func (s *SPA) TrainPropensity(features [][]float64, responded []bool) error {
	if len(features) != len(responded) {
		return errors.New("core: label count mismatch")
	}
	d := &svm.Dataset{X: make([][]float64, len(features)), Y: make([]int, len(responded))}
	for i := range features {
		d.X[i] = append([]float64(nil), features[i]...)
		if responded[i] {
			d.Y[i] = 1
		} else {
			d.Y[i] = -1
		}
	}
	scaler, err := svm.FitScaler(d.X)
	if err != nil {
		return err
	}
	if err := scaler.TransformAll(d.X); err != nil {
		return err
	}
	m, err := svm.TrainCalibrated(d, svm.PegasosTrainer(svm.DefaultPegasos()), 1)
	if err != nil {
		return err
	}
	s.pmodel.Store(&propModel{scorer: &baseline.SVMScorer{Model: m}, scaler: scaler})
	return nil
}
