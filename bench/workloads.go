package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/rng"
	"repro/internal/spaclient"
)

// The four timed workloads. Every one is a closed loop: each caller waits
// for its reply before sending its next request, as every client of this
// system does (spaclient.Client, the credit-windowed StreamIngester).

const (
	streamWindow   = 8 // frames one StreamIngester keeps in flight
	requestTimeout = 30 * time.Second
	// The replica reader samples follower lag between reads, by the clock
	// and not every n-th read: a read that rebuilds the kNN model takes
	// tens of milliseconds, so counts would yield a handful of samples.
	lagEvery = 50 * time.Millisecond
	// framesPerRead paces the replica reader off the write stream: one
	// read per this many replicated frames (the app pulling after its
	// devices uploaded). Two free-running lanes would let the share of
	// expensive reads among the requests drift with every scheduling
	// accident, and every per-request figure with it. A read here costs
	// about 45 ms on average (six in ten rebuild the kNN model, ever larger
	// as the window's events land), so one closed-loop reader tops out
	// near 22 reads a second against some 1,300 frames: at 80 it is busy
	// about 70 % of the time and keeps the ratio exact; at 64 it saturated
	// late in the window, dropped tokens, and every spread doubled.
	framesPerRead = 80
	// One read response in readSampleOneIn is kept for comparison.
	readSampleOneIn = 64
)

const (
	phWarm int32 = iota
	phMeasure
	phStop
)

// windowCtx is the phase the lanes run under: warm-up, measured, stop.
type windowCtx struct {
	phase atomic.Int32
	// stopped is closed when the phase turns phStop, for lanes that block
	// on something other than a request.
	stopped  chan struct{}
	stopOnce sync.Once
}

func newWindowCtx() *windowCtx { return &windowCtx{stopped: make(chan struct{})} }

func (c *windowCtx) stop() {
	c.stopOnce.Do(func() {
		c.phase.Store(phStop)
		close(c.stopped)
	})
}

type mark struct {
	phase int32
	at    time.Time
}

func (c *windowCtx) running() bool { return c.phase.Load() != phStop }
func (c *windowCtx) begin() mark   { return mark{phase: c.phase.Load(), at: time.Now()} }

// kindStats collects one request kind's measured-window outcomes: how long
// each operation took, successes and failures alike.
type kindStats struct {
	lat    []int64
	failed int
}

// end records an operation that began and ended inside the measured
// window, and reports whether it was counted.
func (c *windowCtx) end(ks *kindStats, m mark, ok bool) bool {
	now := time.Now()
	if m.phase != phMeasure || c.phase.Load() != phMeasure {
		return false
	}
	ks.lat = append(ks.lat, int64(now.Sub(m.at)))
	if !ok {
		ks.failed++
	}
	return true
}

// workerStats is one lane goroutine's private tally.
type workerStats struct {
	ingest  kindStats // ingest requests (frames or Client.Ingest batches)
	read    kindStats
	write   kindStats // single-profile writes: submit-answer, reward, punish
	settled kindStats // frames from send to applied on the follower (replica_follow)
	routed  kindStats // recommends over the leader+follower read pool (replica_follow)
	events  int       // events acknowledged inside the window
	reads   []sampledRead
	lag     []int64 // follower lag in waves
	visible []int64 // frame ack -> follower has applied it, nanoseconds
	notes   []string
}

func newWorkerStats() *workerStats {
	const room = 1 << 15
	return &workerStats{
		ingest: kindStats{lat: make([]int64, 0, room)},
		read:   kindStats{lat: make([]int64, 0, room)},
	}
}

func (ws *workerStats) note(format string, args ...any) {
	if len(ws.notes) < 4 {
		ws.notes = append(ws.notes, fmt.Sprintf(format, args...))
	}
}

// lanes is a launched workload: its goroutines' tallies and how to release
// its connections once they have stopped.
type lanes struct {
	stats []*workerStats
	wg    sync.WaitGroup
	close []func()
}

func (l *lanes) spawn(f func(ws *workerStats)) {
	ws := newWorkerStats()
	l.stats = append(l.stats, ws)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		f(ws)
	}()
}

func newClient(url string, opts spaclient.Options) *spaclient.Client {
	opts.Timeout = requestTimeout
	return spaclient.New(url, opts)
}

// settleFunc runs after a frame is acknowledged and before its slot sends
// the next one.
type settleFunc func(c *windowCtx, ws *workerStats, sent mark)

// untilReplicated makes the replica writer semi-synchronous: a slot's next
// frame waits until the follower has applied everything the leader had
// committed when this frame was acknowledged. Without it the loop is closed
// over the leader alone, and a follower that pays one fsync per shard
// record where the leader pays one per wave falls ever further behind (lag
// reached 20,000 records in 10 s): the heap holds the backlog, reads stop
// routing to the follower, and the result depends on the window's length.
// With it at most streamWindow frames are ever unreplicated and the
// writer's rate is what the leader-plus-follower pair sustains. Positions
// are read in-process (core.AppliedLSN): polling them over HTTP from eight
// slots would itself be load.
func untilReplicated(st *stack) settleFunc {
	return func(c *windowCtx, ws *workerStats, sent mark) {
		target, _ := st.leader.spa.AppliedLSN()
		acked := time.Now()
		for c.running() {
			if applied, _ := st.follower.spa.AppliedLSN(); applied >= target {
				if c.end(&ws.settled, sent, true) {
					ws.visible = append(ws.visible, int64(time.Since(acked)))
				}
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// streamLane runs one StreamIngester connection with streamWindow frames in
// flight over the lane's user span.
func (l *lanes) streamLane(c *windowCtx, url string, gen *frameGen, settle settleFunc, log *opLog) {
	si := newClient(url, spaclient.Options{}).Stream(spaclient.StreamOptions{})
	l.close = append(l.close, func() { si.Close() })
	for slot := 0; slot < streamWindow; slot++ {
		l.spawn(func(ws *workerStats) {
			buf := make([]lifelog.Event, frameEvents)
			for c.running() {
				gen.next(buf)
				m := c.begin()
				resp, err := si.Ingest(buf)
				ok := err == nil && resp.Processed == frameEvents
				if c.end(&ws.ingest, m, ok) && ok {
					ws.events += resp.Processed
				}
				if ok {
					log.frame(buf)
					if settle != nil {
						settle(c, ws, m)
					}
					continue
				}
				log.taint(buf)
				ws.note("stream ingest: processed %d of %d: %v", resp.Processed, frameEvents, err)
				if err != nil {
					// Do not spin on a dead connection.
					time.Sleep(10 * time.Millisecond)
				}
			}
		})
	}
}

func launchIngestStream(cfg *config, sh workloadShape, st *stack, log *opLog, c *windowCtx) *lanes {
	l := &lanes{}
	span := sh.users / cfg.lanes / frameUsers * frameUsers
	for lane := 0; lane < cfg.lanes; lane++ {
		l.streamLane(c, st.leader.url, newFrameGen(cfg.seed, lane, uint64(1+lane*span), span), nil, log)
	}
	return l
}

// doRead issues one read through the client and decodes it into the
// comparable form.
func doRead(cl *spaclient.Client, op readOp) (readAnswer, error) {
	var a readAnswer
	var err error
	switch op.kind {
	case rkRecommend:
		a.recs, err = cl.Recommend(op.user, readTopN)
	case rkAdvise:
		resp, e := cl.Advise(op.user, "training")
		a.weights, err = resp.Excitation, e
	case rkSensibilities:
		a.weights, err = cl.Sensibilities(op.user)
	case rkPropensity:
		a.propensity, err = cl.Propensity(op.user)
	case rkSelectTop:
		a.ids, err = cl.SelectTop(readTopN)
	case rkQuestion:
		_, err = cl.NextQuestion(op.user)
	}
	return a, err
}

func launchReadHot(cfg *config, sh workloadShape, st *stack, log *opLog, c *windowCtx) *lanes {
	l := &lanes{}
	pool := hotUsers(cfg.seed, sh.users)
	for lane := 0; lane < cfg.lanes; lane++ {
		cl := newClient(st.leader.url, spaclient.Options{})
		gen := newReadGen(cfg.seed, lane, pool, readHotMix)
		keep := rng.New(subSeed(cfg.seed, "read-sample", lane))
		l.spawn(func(ws *workerStats) {
			for c.running() {
				op := gen.next()
				m := c.begin()
				ans, err := doRead(cl, op)
				counted := c.end(&ws.read, m, err == nil)
				if err != nil {
					ws.note("read %v user %d: %v", op.kind, op.user, err)
				} else if counted && keep.Intn(readSampleOneIn) == 0 {
					ws.reads = append(ws.reads, sampledRead{op: op, got: ans})
				}
			}
		})
	}
	return l
}

// sessionShared is the per-user state session workers coordinate through:
// a hot user's sessions run one at a time, on a clock that only advances.
type sessionShared struct {
	gen    *sessionGen
	userMu []sync.Mutex
	cursor []int64
}

func newSessionShared(seed uint64, users int) *sessionShared {
	s := &sessionShared{gen: newSessionGen(seed, users), userMu: make([]sync.Mutex, users+1), cursor: make([]int64, users+1)}
	for u := range s.cursor {
		s.cursor[u] = windowStart.Add(time.Duration(u) * time.Second).UnixNano()
	}
	return s
}

// runSession plays one session against cl, logging what was acknowledged.
func runSession(c *windowCtx, cl *spaclient.Client, p *sessionPlan, evs []lifelog.Event, log *opLog, ws *workerStats) {
	u := p.user
	m := c.begin()
	resp, err := cl.Ingest(evs)
	good := err == nil && resp.Processed == len(evs)
	if c.end(&ws.ingest, m, good) && good {
		ws.events += resp.Processed
	}
	if good {
		log.ingest(u, evs)
	} else {
		log.taint(evs)
		ws.note("session ingest user %d: processed %d of %d: %v", u, resp.Processed, len(evs), err)
	}

	m = c.begin()
	_, err = cl.Recommend(u, readTopN)
	c.end(&ws.read, m, err == nil)
	if err != nil {
		ws.note("session recommend user %d: %v", u, err)
	}

	if p.question {
		m = c.begin()
		q, err := cl.NextQuestion(u)
		asked := err == nil && len(q.Options) > 0
		c.end(&ws.read, m, asked)
		if !asked {
			ws.note("session question user %d: %v", u, err)
		} else {
			opt := p.answerOpt % len(q.Options)
			m = c.begin()
			err = cl.SubmitAnswer(u, q.ID, opt)
			c.end(&ws.write, m, err == nil)
			if err == nil {
				log.append(u, loggedOp{kind: opAnswer, item: q.ID, option: opt})
			} else {
				log.taint(evs[:1])
				ws.note("session answer user %d: %v", u, err)
			}
		}
	}

	if p.reinforce {
		attr, _ := emotion.ParseAttribute(p.attr) // p.attr came from Attribute.String
		m = c.begin()
		kind := opPunish
		if p.reward {
			kind = opReward
			err = cl.Reward(u, []string{p.attr})
		} else {
			err = cl.Punish(u, []string{p.attr})
		}
		c.end(&ws.write, m, err == nil)
		if err == nil {
			log.append(u, loggedOp{kind: kind, attr: attr})
		} else {
			log.taint(evs[:1])
			ws.note("session reinforce user %d: %v", u, err)
		}
	}
}

func launchSessionMix(cfg *config, sh workloadShape, st *stack, log *opLog, c *windowCtx) *lanes {
	l := &lanes{}
	shared := newSessionShared(cfg.seed, sh.users)
	for lane := 0; lane < cfg.lanes; lane++ {
		cl := newClient(st.leader.url, spaclient.Options{})
		l.spawn(func(ws *workerStats) {
			var p sessionPlan
			buf := make([]lifelog.Event, 0, len(p.types))
			for c.running() {
				shared.gen.next(&p)
				shared.userMu[p.user].Lock()
				evs := p.events(&shared.cursor[p.user], buf)
				runSession(c, cl, &p, evs, log, ws)
				shared.userMu[p.user].Unlock()
			}
		})
	}
	return l
}

func launchReplicaFollow(cfg *config, sh workloadShape, st *stack, log *opLog, c *windowCtx) *lanes {
	l := &lanes{}
	// Lane 1: one stream writing device-upload frames to the leader. Every
	// framesPerRead-th replicated frame hands the reader a token; a token
	// the reader has no room for is dropped (it is still busy reading).
	span := sh.users / frameUsers * frameUsers
	tokens := make(chan struct{}, 8) // a rebuild several times the median must not cost the reads owed meanwhile
	var frames atomic.Int64
	replicated := untilReplicated(st)
	settle := func(c *windowCtx, ws *workerStats, sent mark) {
		replicated(c, ws, sent)
		if frames.Add(1)%framesPerRead == 0 {
			select {
			case tokens <- struct{}{}:
			default:
			}
		}
	}
	l.streamLane(c, st.leader.url, newFrameGen(cfg.seed, 0, 1, span), settle, log)

	// Lane 2: one closed-loop reader routed over the follower.
	routed := newClient(st.leader.url, spaclient.Options{ReadFrom: []string{st.follower.url}, MaxStalenessWaves: 64})
	gen := newReadGen(cfg.seed, 0, allUsers(sh.users), replicaMix)
	l.spawn(func(ws *workerStats) {
		var lastLag time.Time
		for {
			select {
			case <-tokens:
			case <-c.stopped:
				return
			}
			op := gen.next()
			m := c.begin()
			_, err := doRead(routed, op)
			c.end(&ws.read, m, err == nil)
			if op.kind == rkRecommend {
				c.end(&ws.routed, m, err == nil)
			}
			if err != nil {
				ws.note("read %v user %d: %v", op.kind, op.user, err)
			}
			if c.phase.Load() != phMeasure {
				continue
			}
			if now := time.Now(); now.Sub(lastLag) >= lagEvery {
				lastLag = now
				// The leader's view (acknowledged against committed) is exact;
				// the follower only learns the head from heartbeats.
				if ls, err := routed.ReplicationStatus(); err == nil {
					ws.lag = append(ws.lag, int64(ls.LagWaves))
				}
			}
		}
	})
	return l
}

var launchers = map[string]func(*config, workloadShape, *stack, *opLog, *windowCtx) *lanes{
	wlIngestStream:  launchIngestStream,
	wlReadHot:       launchReadHot,
	wlSessionMix:    launchSessionMix,
	wlReplicaFollow: launchReplicaFollow,
}

// fingerprint hashes the first fingerprintReqs requests a workload's
// generators yield for this seed, from fresh generator instances.
func fingerprint(cfg *config, name string, sh workloadShape) string {
	f := newFingerprinter()
	buf := make([]lifelog.Event, frameEvents)
	switch name {
	case wlIngestStream:
		span := sh.users / cfg.lanes / frameUsers * frameUsers
		gens := make([]*frameGen, cfg.lanes)
		for lane := range gens {
			gens[lane] = newFrameGen(cfg.seed, lane, uint64(1+lane*span), span)
		}
		for f.n < fingerprintReqs {
			gens[f.n%len(gens)].next(buf)
			f.frame(buf)
		}
	case wlReadHot:
		pool := hotUsers(cfg.seed, sh.users)
		gens := make([]*readGen, cfg.lanes)
		for lane := range gens {
			gens[lane] = newReadGen(cfg.seed, lane, pool, readHotMix)
		}
		for f.n < fingerprintReqs {
			f.read(gens[f.n%len(gens)].next())
		}
	case wlSessionMix:
		gen := newSessionGen(cfg.seed, sh.users)
		var p sessionPlan
		for f.n < fingerprintReqs {
			gen.next(&p)
			f.session(&p)
		}
	case wlReplicaFollow:
		frames := newFrameGen(cfg.seed, 0, 1, sh.users/frameUsers*frameUsers)
		reads := newReadGen(cfg.seed, 0, allUsers(sh.users), replicaMix)
		for f.n < fingerprintReqs {
			frames.next(buf)
			f.frame(buf)
			f.read(reads.next())
		}
	}
	return f.sum()
}
