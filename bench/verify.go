package main

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/rng"
	"repro/internal/sum"
	"repro/internal/wire"
)

// Correctness checks. A seeded sample of users has every acknowledged
// mutation logged; after the window the log is replayed into an in-memory
// shadow core and the served profiles must equal the shadow's, byte for
// byte through the sum codec — first against the live core, then against
// a reopened data directory (durability), and on replica_follow against
// the follower. Every check is one attempt; a mismatch is one failure.

const sampleUsers = 256

type opKind uint8

const (
	opIngest opKind = iota
	opAnswer
	opReward
	opPunish
)

// loggedOp is one acknowledged mutation of a sampled user.
type loggedOp struct {
	kind   opKind
	events []lifelog.Event
	item   int
	option int
	attr   emotion.Attribute
}

// opLog records sampled users' acknowledged mutations in per-user order.
// Callers serialise a user's operations themselves (a user is never in two
// in-flight requests), so appending under the lock preserves that order.
type opLog struct {
	mu      sync.Mutex
	sampled []bool // indexed by user id
	users   []uint64
	ops     map[uint64][]loggedOp
	// tainted marks users whose request failed with an unknown outcome;
	// their final state cannot be predicted.
	tainted map[uint64]bool
}

// newOpLog samples users: always the given hot ones (where ordering bugs
// would show first), topped up uniformly from the seed.
func newOpLog(seed uint64, users int, hot []uint64) *opLog {
	l := &opLog{sampled: make([]bool, users+1), ops: make(map[uint64][]loggedOp), tainted: make(map[uint64]bool)}
	add := func(u uint64) {
		if !l.sampled[u] {
			l.sampled[u] = true
			l.users = append(l.users, u)
		}
	}
	want := min(sampleUsers, users)
	for _, u := range hot {
		if len(l.users) < want/4 {
			add(u)
		}
	}
	r := rng.New(subSeed(seed, "sample", 0))
	for len(l.users) < want {
		add(uint64(1 + r.Intn(users)))
	}
	return l
}

// append is a no-op on a nil log: the traced pass's twin cores are
// populated without one.
func (l *opLog) append(user uint64, op loggedOp) {
	if l == nil || !l.sampled[user] {
		return
	}
	l.mu.Lock()
	l.ops[user] = append(l.ops[user], op)
	l.mu.Unlock()
}

// ingest logs one acknowledged request's events of one user.
func (l *opLog) ingest(user uint64, events []lifelog.Event) {
	if l == nil || !l.sampled[user] {
		return
	}
	l.append(user, loggedOp{kind: opIngest, events: append([]lifelog.Event(nil), events...)})
}

// frame logs an acknowledged device-upload frame (frameUsers consecutive
// runs of eventsPerUser events).
func (l *opLog) frame(events []lifelog.Event) {
	for u := 0; u < frameUsers; u++ {
		evs := events[u*eventsPerUser : (u+1)*eventsPerUser]
		l.ingest(evs[0].UserID, evs)
	}
}

func (l *opLog) taint(events []lifelog.Event) {
	l.mu.Lock()
	for _, e := range events {
		if l.sampled[e.UserID] {
			l.tainted[e.UserID] = true
		}
	}
	l.mu.Unlock()
}

// shadow replays the log into a fresh in-memory core.
func (l *opLog) shadow(seed uint64) (*core.SPA, error) {
	spa, err := core.New(core.Options{Shards: coreShards, Clock: fixedClock})
	if err != nil {
		return nil, err
	}
	for _, u := range l.users {
		if err := spa.Register(u, objectiveFor(seed, u)); err != nil {
			return nil, err
		}
		for _, op := range l.ops[u] {
			switch op.kind {
			case opIngest:
				_, _, err = spa.BatchIngest(op.events)
			case opAnswer:
				err = spa.SubmitAnswer(u, emotion.Answer{ItemID: op.item, Option: op.option})
			case opReward:
				err = spa.Reward(u, []emotion.Attribute{op.attr})
			case opPunish:
				err = spa.Punish(u, []emotion.Attribute{op.attr})
			}
			if err != nil {
				return nil, fmt.Errorf("replaying user %d: %w", u, err)
			}
		}
	}
	return spa, nil
}

// checks tallies verification outcomes.
type checks struct {
	attempted int
	failed    int
	notes     []string
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// sameProfiles requires got to serve every sampled profile equal to want's.
func (c *checks) sameProfiles(label string, l *opLog, got, want *core.SPA) {
	for _, u := range l.users {
		c.attempted++
		if l.tainted[u] {
			c.fail("%s: user %d had a request of unknown outcome", label, u)
			continue
		}
		wp, werr := want.Profile(u)
		gp, gerr := got.Profile(u)
		if werr != nil || gerr != nil {
			c.fail("%s: user %d: profile errors %v / %v", label, u, gerr, werr)
			continue
		}
		if !bytes.Equal(sum.Encode(&gp), sum.Encode(&wp)) {
			c.fail("%s: user %d: served profile differs from the replayed one", label, u)
		}
	}
}

// readAnswer is a read's decoded response in comparable form.
type readAnswer struct {
	recs       []wire.Recommendation
	weights    map[string]float64 // advise / sensibilities
	propensity float64
	ids        []uint64
}

// sampledRead is one response kept for the post-window comparison.
type sampledRead struct {
	op  readOp
	got readAnswer
}

// expectedRead computes the in-process answer the way the handler does.
func expectedRead(spa *core.SPA, op readOp) (readAnswer, error) {
	var a readAnswer
	switch op.kind {
	case rkRecommend:
		recs, err := spa.RecommendActions(op.user, readTopN)
		if err != nil {
			return a, err
		}
		a.recs = make([]wire.Recommendation, len(recs))
		for i, r := range recs {
			a.recs[i] = wire.Recommendation{Action: r.Action, Score: r.Score}
		}
	case rkAdvise:
		adv, err := spa.Advise(op.user, "training")
		if err != nil {
			return a, err
		}
		a.weights = make(map[string]float64, emotion.NumAttributes)
		for i, v := range adv.Excitation {
			a.weights[emotion.Attribute(i).String()] = v
		}
	case rkSensibilities:
		sens, err := spa.Sensibilities(op.user)
		if err != nil {
			return a, err
		}
		a.weights = make(map[string]float64, len(sens))
		for i, v := range sens {
			a.weights[emotion.Attribute(i).String()] = v
		}
	case rkPropensity:
		p, err := spa.Propensity(op.user)
		if err != nil {
			return a, err
		}
		a.propensity = p
	case rkSelectTop:
		ids, err := spa.SelectTop(readTopN)
		if err != nil {
			return a, err
		}
		a.ids = ids
	default:
		return a, fmt.Errorf("no in-process twin for read kind %v", op.kind)
	}
	return a, nil
}

// sameReads compares sampled responses with the core's own answers; valid
// only while the core is quiescent (read_hot has no writes).
func (c *checks) sameReads(spa *core.SPA, samples []sampledRead) {
	for _, s := range samples {
		c.attempted++
		want, err := expectedRead(spa, s.op)
		if err != nil {
			c.fail("read %v user %d: in-process answer failed: %v", s.op.kind, s.op.user, err)
			continue
		}
		if !reflect.DeepEqual(normalise(s.got), normalise(want)) {
			c.fail("read %v user %d: response differs from the in-process answer", s.op.kind, s.op.user)
		}
	}
}

// normalise maps empty and nil collections onto one form: JSON decoding
// yields nil where the core yields an empty slice.
func normalise(a readAnswer) readAnswer {
	if len(a.recs) == 0 {
		a.recs = nil
	}
	if len(a.ids) == 0 {
		a.ids = nil
	}
	if len(a.weights) == 0 {
		a.weights = nil
	}
	return a
}
