package scalebench

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/rng"
	"repro/internal/spaclient"
	"repro/internal/synth"
)

// The scenario replay behind spabench [S9]: the traffic shape a deployed
// SPA system would actually see, per the paper's warehousing framing: a zipf-skewed user population (a handful
// of heavy users dominate the stream), diurnal traffic waves (session
// volume swells toward a peak hour and ebbs overnight — compressed here
// into per-session burst sizing rather than wall-clock pacing), and
// mixed-endpoint sessions in which a device upload (ingest) is followed
// by recommendation pulls, a Gradual EIT question/answer exchange, and
// campaign reinforcement — so the write path and the read path contend
// for the same shards.
//
// Every session's content derives from the seed; only timestamps are
// assigned at execution time (per-user monotone cursors under a per-user
// lock, which also serializes a hot user's sessions the way one device
// uploading sequentially would).

// ScenarioConfig parameterizes one scenario replay.
type ScenarioConfig struct {
	// BaseURL locates the daemon.
	BaseURL string
	// Endpoints lists every node of a multi-node target (replica set or
	// cluster); empty replays against BaseURL alone. Session workers are
	// spread round-robin across the endpoints, so reads and writes arrive
	// at every node even before routing kicks in.
	Endpoints []string
	// Cluster enables topology-aware routing in the replay clients: each
	// user-keyed request goes to the slot owner per /v1/topology, with the
	// single-hop 421 bounce retry. Without it a multi-endpoint replay
	// relies on the server-side bounce alone and counts 421s as errors.
	Cluster bool
	// Seed derives the population, skew, and every session's content.
	Seed uint64
	// Users is the synthetic population size (default Users).
	Users int
	// Clients is the number of concurrent session workers (default Workers).
	Clients int
	// Sessions is the total session count to replay (default 96).
	Sessions int
	// ZipfS is the popularity exponent over the user ranks (default 1.07,
	// the skew pinned by the rng/zipf property test).
	ZipfS float64
	// Register creates the population first (conflicts on rerun are fine).
	Register bool
	// Timeout bounds each request (default 30s).
	Timeout time.Duration
}

// ScenarioResult is one replay's measurement, split into the write side
// (ingest, EIT answers, rewards) and the read side (recommendations, EIT
// questions) so both serving paths report throughput and tail latency.
type ScenarioResult struct {
	Sessions int `json:"sessions"`
	Events   int `json:"events"`
	WriteOps int `json:"write_ops"`
	ReadOps  int `json:"read_ops"`
	// ColdReads counts recommendation pulls answered 409 before the CF
	// model had interactions — expected early in a replay, not errors.
	ColdReads int           `json:"cold_reads"`
	Errors    int           `json:"errors"`
	Duration  time.Duration `json:"duration_ns"`

	WriteEventsPerSec float64       `json:"write_events_per_sec"`
	ReadOpsPerSec     float64       `json:"read_ops_per_sec"`
	WriteP50          time.Duration `json:"write_p50_ns"`
	WriteP95          time.Duration `json:"write_p95_ns"`
	WriteP99          time.Duration `json:"write_p99_ns"`
	ReadP50           time.Duration `json:"read_p50_ns"`
	ReadP95           time.Duration `json:"read_p95_ns"`
	ReadP99           time.Duration `json:"read_p99_ns"`

	// Top1PctShare is the session share of the most-replayed 1% of users
	// (at least one user) — the realized skew, for reporting.
	Top1PctShare float64 `json:"top1pct_share"`
}

// sessionPlan is one session's seed-derived content. Timestamps are
// deliberately absent: they come from the per-user cursor at run time.
type sessionPlan struct {
	user      uint64
	types     []lifelog.EventType
	actions   []uint32
	values    []float32
	recommend bool
	question  bool
	answerOpt int
	reward    bool
	attr      string
}

// RunScenario replays the scenario against a live daemon.
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	if cfg.BaseURL == "" && len(cfg.Endpoints) > 0 {
		cfg.BaseURL = cfg.Endpoints[0]
	}
	if cfg.BaseURL == "" {
		return ScenarioResult{}, errors.New("scalebench: scenario needs a base URL")
	}
	if cfg.Users <= 0 {
		cfg.Users = Users
	}
	if cfg.Clients <= 0 {
		cfg.Clients = Workers
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 96
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.07
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	pop, err := synthPop(cfg)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("scalebench: scenario population: %w", err)
	}

	plans, topShare := buildSessionPlans(cfg, pop)

	bases := cfg.Endpoints
	if len(bases) == 0 {
		bases = []string{cfg.BaseURL}
	}
	clients := make([]*spaclient.Client, cfg.Clients)
	for i := range clients {
		clients[i] = spaclient.New(bases[i%len(bases)],
			spaclient.Options{Timeout: cfg.Timeout, Cluster: cfg.Cluster})
	}
	if cfg.Register {
		if err := registerPopulation(clients, cfg.Users); err != nil {
			return ScenarioResult{}, err
		}
	}

	// Per-user serialization + monotone time cursors: a user's sessions
	// run one at a time with strictly increasing event timestamps, so the
	// server-side coalescer can merge any mix of in-flight requests
	// without ever seeing an out-of-order per-user stream.
	userMu := make([]sync.Mutex, cfg.Users+1)
	cursor := make([]time.Time, cfg.Users+1)
	for u := 1; u <= cfg.Users; u++ {
		cursor[u] = clock.Epoch.Add(time.Duration(u) * time.Second)
	}

	type workerStats struct {
		events, writeOps, readOps, coldReads, errors int
		writeLat, readLat                            []time.Duration
	}
	stats := make([]workerStats, cfg.Clients)
	var next int64
	var mu sync.Mutex
	takeSession := func() int {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= len(plans) {
			return -1
		}
		i := int(next)
		next++
		return i
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			st := &stats[w]
			for {
				i := takeSession()
				if i < 0 {
					return
				}
				p := &plans[i]
				u := p.user
				userMu[u].Lock()

				// Write side: the device upload.
				evs := make([]lifelog.Event, len(p.types))
				at := cursor[u]
				for k := range p.types {
					at = at.Add(13 * time.Second)
					evs[k] = lifelog.Event{UserID: u, Time: at, Type: p.types[k], Action: p.actions[k], Value: p.values[k]}
				}
				cursor[u] = at.Add(7 * time.Minute)
				t1 := time.Now()
				resp, err := c.Ingest(evs)
				st.writeLat = append(st.writeLat, time.Since(t1))
				st.writeOps++
				if err != nil {
					st.errors++
				} else {
					st.events += resp.Processed
				}

				// Read side: recommendation pull.
				if p.recommend {
					t1 = time.Now()
					_, err := c.Recommend(u, 5)
					st.readLat = append(st.readLat, time.Since(t1))
					st.readOps++
					if isStatus(err, http.StatusConflict) {
						st.coldReads++ // CF model not warmed yet
					} else if err != nil {
						st.errors++
					}
				}

				// EIT exchange: question (read), answer (write).
				if p.question {
					t1 = time.Now()
					q, err := c.NextQuestion(u)
					st.readLat = append(st.readLat, time.Since(t1))
					st.readOps++
					if err != nil {
						st.errors++
					} else if len(q.Options) > 0 {
						t1 = time.Now()
						err = c.SubmitAnswer(u, q.ID, p.answerOpt%len(q.Options))
						st.writeLat = append(st.writeLat, time.Since(t1))
						st.writeOps++
						if err != nil {
							st.errors++
						}
					}
				}

				// Campaign reinforcement (write).
				if p.reward {
					t1 = time.Now()
					err := c.Reward(u, []string{p.attr})
					st.writeLat = append(st.writeLat, time.Since(t1))
					st.writeOps++
					if err != nil {
						st.errors++
					}
				}
				userMu[u].Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := ScenarioResult{Sessions: len(plans), Duration: elapsed, Top1PctShare: topShare}
	var writes, reads []time.Duration
	for _, st := range stats {
		res.Events += st.events
		res.WriteOps += st.writeOps
		res.ReadOps += st.readOps
		res.ColdReads += st.coldReads
		res.Errors += st.errors
		writes = append(writes, st.writeLat...)
		reads = append(reads, st.readLat...)
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i] < writes[j] })
	sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
	res.WriteP50, res.WriteP95, res.WriteP99 = percentile(writes, 0.50), percentile(writes, 0.95), percentile(writes, 0.99)
	res.ReadP50, res.ReadP95, res.ReadP99 = percentile(reads, 0.50), percentile(reads, 0.95), percentile(reads, 0.99)
	if secs := elapsed.Seconds(); secs > 0 {
		res.WriteEventsPerSec = float64(res.Events) / secs
		res.ReadOpsPerSec = float64(res.ReadOps) / secs
	}
	return res, nil
}

// buildSessionPlans derives every session from the seed: who (zipf over a
// shuffled rank→user map), how much (the user's activity scaled by the
// diurnal wave the session falls into), and what (interest-bucketed
// actions under an in-bucket popularity law, mirroring the synthetic
// WebLog shape; plus the read/answer/reward mix). Also returns the
// realized session share of the top 1% of users.
func buildSessionPlans(cfg ScenarioConfig, pop *synth.Population) ([]sessionPlan, float64) {
	r := rng.New(cfg.Seed ^ 0x5ca1ab1e)
	zipf := rng.NewZipf(cfg.Users, cfg.ZipfS)
	actionZipf := rng.NewZipf(lifelog.ActionUniverse/lifelog.NumActionBuckets+1, 1.05)
	rankToUser := r.Perm(cfg.Users)

	plans := make([]sessionPlan, cfg.Sessions)
	perUser := make(map[uint64]int, cfg.Users)
	for i := range plans {
		user := uint64(rankToUser[zipf.Draw(r)] + 1)
		u := &pop.Users[user-1]
		perUser[user]++

		// Diurnal wave: sessions sweep one virtual day, peaking at 14:00.
		// The wave scales burst volume — the compressed stand-in for
		// arrival-rate swell, keeping the bench wall-clock-bounded.
		hour := 24 * float64(i) / float64(cfg.Sessions)
		wave := 1 + 0.75*math.Sin(2*math.Pi*(hour-8)/24)
		n := int(math.Round(u.Activity*wave)) + 1
		if n > 24 {
			n = 24
		}

		p := sessionPlan{
			user:      user,
			types:     make([]lifelog.EventType, n),
			actions:   make([]uint32, n),
			values:    make([]float32, n),
			recommend: r.Bool(0.5),
			question:  r.Bool(0.45),
			answerOpt: r.Intn(8),
			reward:    r.Bool(0.25),
			attr:      emotion.Attribute(r.Intn(emotion.NumAttributes)).String(),
		}
		for k := 0; k < n; k++ {
			bucket := r.Categorical(u.InterestBuckets)
			action := uint32(bucket*lifelog.ActionUniverse/lifelog.NumActionBuckets + actionZipf.Draw(r))
			if action >= lifelog.ActionUniverse {
				action = lifelog.ActionUniverse - 1
			}
			p.actions[k] = action
			switch {
			case r.Bool(0.25):
				p.types[k] = lifelog.EventPageView
				p.values[k] = float32(10 + r.Intn(300))
			case r.Bool(0.08):
				p.types[k] = lifelog.EventSearch
			default:
				p.types[k] = lifelog.EventClick
			}
		}
		plans[i] = p
	}

	// Realized top-1% share: how much of the replay the heaviest users own.
	counts := make([]int, 0, len(perUser))
	for _, c := range perUser {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := cfg.Users / 100
	if top < 1 {
		top = 1
	}
	sum := 0
	for i := 0; i < top && i < len(counts); i++ {
		sum += counts[i]
	}
	return plans, float64(sum) / float64(cfg.Sessions)
}

// registerPopulation creates users 1..n, split across the clients.
func registerPopulation(clients []*spaclient.Client, n int) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(clients))
	per := (n + len(clients) - 1) / len(clients)
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *spaclient.Client) {
			defer wg.Done()
			for u := k*per + 1; u <= (k+1)*per && u <= n; u++ {
				err := c.Register(uint64(u), nil)
				if err != nil && !isStatus(err, http.StatusConflict) {
					errCh <- fmt.Errorf("registering user %d: %w", u, err)
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// percentile reads the p-quantile from an ascending latency slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// isStatus reports whether err is an API error with the given status.
func isStatus(err error, status int) bool {
	var apiErr *spaclient.APIError
	return errors.As(err, &apiErr) && apiErr.Status == status
}

// synthPop builds the scenario population for a config.
func synthPop(cfg ScenarioConfig) (*synth.Population, error) {
	return synth.Generate(synth.DefaultConfig(cfg.Users, cfg.Seed))
}
