package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Traffic generators. Everything a workload sends derives from -seed; the
// program under test sees only the generated requests. Each generator is a
// deterministic stream: the n-th request it yields depends on the seed and
// n alone, whichever goroutine asks for it.

const (
	frameUsers      = 8 // the device-upload shape: 8 users x 4 events
	eventsPerUser   = 4
	frameEvents     = frameUsers * eventsPerUser
	eventSpacing    = 13 * time.Second
	visitSpacing    = 7 * time.Minute
	fingerprintReqs = 10000
)

var (
	// coreNow is the fixed instant every core in a run is clocked at, so the
	// replayed shadow core and the served core stamp identical times.
	coreNow = clock.Epoch.AddDate(10, 0, 0)
	// preloadStart / windowStart keep set-up events strictly before the
	// timed traffic on every user's clock.
	preloadStart = clock.Epoch
	windowStart  = clock.Epoch.AddDate(0, 1, 0)
)

// subSeed derives an independent stream seed for (purpose, index).
func subSeed(seed uint64, purpose string, idx int) uint64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], seed)
	binary.LittleEndian.PutUint64(b[8:], uint64(idx))
	h.Write(b[:])
	h.Write([]byte(purpose))
	return h.Sum64()
}

// objectiveFor is user's seeded socio-demographic block (the eight
// objective attributes of core's registry).
func objectiveFor(seed uint64, user uint64) []float64 {
	r := rng.New(subSeed(seed, "objective", int(user)))
	return []float64{
		float64(18 + r.Intn(50)), float64(r.Intn(2)), float64(r.Intn(5)), float64(r.Intn(4)),
		float64(r.Intn(6)), float64(r.Intn(4)), float64(r.Intn(8)), float64(r.Intn(120)),
	}
}

// eventMix draws one event's type, action and value: 70 % click, 20 %
// rating, 10 % purchase (enroll), zipf-skewed actions.
type eventMix struct {
	r    *rng.RNG
	zipf *rng.Zipf
}

func newEventMix(seed uint64) *eventMix {
	return &eventMix{r: rng.New(seed), zipf: rng.NewZipf(lifelog.ActionUniverse, 1.05)}
}

func (m *eventMix) fill(e *lifelog.Event, user uint64, at int64) {
	e.UserID = user
	e.Time = time.Unix(0, at)
	e.Action = uint32(m.zipf.Draw(m.r))
	e.Campaign = 0
	switch u := m.r.Float64(); {
	case u < 0.70:
		e.Type, e.Value = lifelog.EventClick, 0
	case u < 0.90:
		e.Type, e.Value = lifelog.EventRating, float32(1+m.r.Intn(5))
	default:
		e.Type, e.Value = lifelog.EventEnroll, 0
	}
}

// frameGen yields device-upload frames over one lane's user span: frame k
// carries users [8k, 8k+8) mod span, so the frames a lane has in flight
// (at most its window) never share a user, and a user's clock only moves
// forward.
type frameGen struct {
	mu     sync.Mutex
	mix    *eventMix
	first  uint64 // first user id of the span
	span   int
	pos    int
	cursor []int64
}

func newFrameGen(seed uint64, lane int, first uint64, span int) *frameGen {
	g := &frameGen{mix: newEventMix(subSeed(seed, "frames", lane)), first: first, span: span, cursor: make([]int64, span)}
	for i := range g.cursor {
		g.cursor[i] = windowStart.Add(time.Duration(i) * time.Second).UnixNano()
	}
	return g
}

// next fills buf (len frameEvents) with the lane's next frame.
func (g *frameGen) next(buf []lifelog.Event) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for u := 0; u < frameUsers; u++ {
		off := g.pos
		g.pos = (g.pos + 1) % g.span
		at := g.cursor[off]
		for k := 0; k < eventsPerUser; k++ {
			at += int64(eventSpacing)
			g.mix.fill(&buf[u*eventsPerUser+k], g.first+uint64(off), at)
		}
		g.cursor[off] = at + int64(visitSpacing)
	}
}

// preloadEvents yields perUser set-up events for each of users
// [first, first+count), user by user.
func preloadEvents(seed uint64, first uint64, count, perUser int) []lifelog.Event {
	mix := newEventMix(subSeed(seed, "preload", int(first)))
	out := make([]lifelog.Event, count*perUser)
	for u := 0; u < count; u++ {
		user := first + uint64(u)
		at := preloadStart.Add(time.Duration(user) * time.Second).UnixNano()
		for k := 0; k < perUser; k++ {
			at += int64(eventSpacing)
			mix.fill(&out[u*perUser+k], user, at)
		}
	}
	return out
}

type readKind uint8

const (
	rkRecommend readKind = iota
	rkAdvise
	rkPropensity
	rkSelectTop
	rkSensibilities
	rkQuestion
)

var readKindNames = [...]string{"recommend", "advise", "propensity", "select_top", "sensibilities", "question"}

func (k readKind) String() string { return readKindNames[k] }

const readTopN = 10 // recommend(10), select-top(10)

type readOp struct {
	kind readKind
	user uint64
}

// readGen yields reads in a fixed kind mix, uniform over a pool of users.
// Kinds are dealt from a deck holding the mix exactly, reshuffled when it
// runs out: the order is the seed's, but every twenty consecutive reads
// hold the same number of each kind. Kinds differ a thousandfold in cost (a
// recommend that rebuilds the kNN model against an advise), so with
// independent draws a few hundred reads' share of the expensive kind — and
// every per-request figure with it — would wander by several percent from
// seed to seed.
type readGen struct {
	r    *rng.RNG
	pool []uint64
	deck []readKind
	left int // cards not yet dealt from the current shuffle
}

// readMix is a kind mix in twentieths.
type readMix []struct {
	kind  readKind
	per20 int
}

var (
	readHotMix = readMix{{rkRecommend, 10}, {rkAdvise, 4}, {rkPropensity, 4}, {rkSelectTop, 2}} // 50/20/20/10 %
	replicaMix = readMix{{rkRecommend, 12}, {rkAdvise, 5}, {rkSensibilities, 3}}                // 60/25/15 %
)

func newReadGen(seed uint64, lane int, pool []uint64, mix readMix) *readGen {
	g := &readGen{r: rng.New(subSeed(seed, "reads", lane)), pool: pool}
	for _, m := range mix {
		for i := 0; i < m.per20; i++ {
			g.deck = append(g.deck, m.kind)
		}
	}
	return g
}

func (g *readGen) next() readOp {
	if g.left == 0 {
		g.r.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.left = len(g.deck)
	}
	g.left--
	return readOp{kind: g.deck[g.left], user: g.pool[g.r.Intn(len(g.pool))]}
}

// allUsers is the whole population as a read pool.
func allUsers(users int) []uint64 {
	pool := make([]uint64, users)
	for i := range pool {
		pool[i] = uint64(i + 1)
	}
	return pool
}

// hotUsers is read_hot's read pool: a seeded eighth of the population.
// core keeps at most 128 cached rankings per shard (2,048 over 16 shards,
// evicted a shard at a time), so a uniform draw over all 4,096 users can
// never run hot; 512 users fit with room, and the population they are
// ranked against stays whole.
func hotUsers(seed uint64, users int) []uint64 {
	r := rng.New(subSeed(seed, "hot-users", 0))
	pool := make([]uint64, 0, users/8)
	for _, i := range r.SampleInts(users, users/8) {
		pool = append(pool, uint64(i+1))
	}
	return pool
}

// sessionPlan is one session's seed-derived content. Event timestamps are
// absent: they come from the user's clock when the session runs, because
// which worker reaches a hot user first is decided at run time.
type sessionPlan struct {
	user      uint64
	n         int
	types     [24]lifelog.EventType
	actions   [24]uint32
	values    [24]float32
	question  bool
	answerOpt int
	reinforce bool
	reward    bool
	attr      string
}

// sessionGen yields [S6]-shaped sessions: zipf(1.07) over a shuffled
// rank-to-user map, 4-24 events, 40 % question+answer, 30 % reward/punish.
type sessionGen struct {
	mu         sync.Mutex
	r          *rng.RNG
	mix        *eventMix
	zipf       *rng.Zipf
	rankToUser []int
}

func newSessionGen(seed uint64, users int) *sessionGen {
	r := rng.New(subSeed(seed, "sessions", 0))
	return &sessionGen{
		r:          r,
		mix:        newEventMix(subSeed(seed, "session-events", 0)),
		zipf:       rng.NewZipf(users, 1.07),
		rankToUser: r.Perm(users),
	}
}

// hottest returns the k most popular users of the session law.
func (g *sessionGen) hottest(k int) []uint64 {
	out := make([]uint64, 0, k)
	for rank := 0; rank < k && rank < len(g.rankToUser); rank++ {
		out = append(out, uint64(g.rankToUser[rank]+1))
	}
	return out
}

func (g *sessionGen) next(p *sessionPlan) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p.user = uint64(g.rankToUser[g.zipf.Draw(g.r)] + 1)
	p.n = 4 + g.r.Intn(21)
	var e lifelog.Event
	for k := 0; k < p.n; k++ {
		g.mix.fill(&e, p.user, 0)
		p.types[k], p.actions[k], p.values[k] = e.Type, e.Action, e.Value
	}
	p.question = g.r.Bool(0.40)
	p.answerOpt = g.r.Intn(8)
	p.reinforce = g.r.Bool(0.30)
	p.reward = g.r.Bool(0.5)
	p.attr = emotion.Attribute(g.r.Intn(emotion.NumAttributes)).String()
}

// events stamps the plan's events onto the user's clock, advancing it.
func (p *sessionPlan) events(cursor *int64, buf []lifelog.Event) []lifelog.Event {
	buf = buf[:0]
	at := *cursor
	for k := 0; k < p.n; k++ {
		at += int64(eventSpacing)
		buf = append(buf, lifelog.Event{UserID: p.user, Time: time.Unix(0, at), Type: p.types[k], Action: p.actions[k], Value: p.values[k]})
	}
	*cursor = at + int64(visitSpacing)
	return buf
}

// fingerprinter hashes generated requests so drift in the rng or lifelog
// generators shows as a changed fingerprint, not as a silent metric shift.
type fingerprinter struct {
	h hash.Hash64
	n int
}

func newFingerprinter() *fingerprinter { return &fingerprinter{h: fnv.New64a()} }

func (f *fingerprinter) frame(events []lifelog.Event) {
	f.h.Write(wire.EncodeIngestRequest(wire.FromEvents(events)))
	f.n++
}

func (f *fingerprinter) read(op readOp) {
	var b [9]byte
	b[0] = byte(op.kind)
	binary.LittleEndian.PutUint64(b[1:], op.user)
	f.h.Write(b[:])
	f.n++
}

func (f *fingerprinter) session(p *sessionPlan) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], p.user)
	flags := uint64(p.n) | uint64(p.answerOpt)<<8
	if p.question {
		flags |= 1 << 16
	}
	if p.reinforce {
		flags |= 1 << 17
	}
	if p.reward {
		flags |= 1 << 18
	}
	binary.LittleEndian.PutUint64(b[8:], flags)
	f.h.Write(b[:])
	f.h.Write([]byte(p.attr))
	for k := 0; k < p.n; k++ {
		var e [9]byte
		e[0] = byte(p.types[k])
		binary.LittleEndian.PutUint32(e[1:5], p.actions[k])
		binary.LittleEndian.PutUint32(e[5:], math.Float32bits(p.values[k]))
		f.h.Write(e[:])
	}
	f.n++
}

func (f *fingerprinter) sum() string { return fmt.Sprintf("%016x", f.h.Sum64()) }
