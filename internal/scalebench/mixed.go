package scalebench

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/lifelog"
	"repro/internal/rng"
	"repro/internal/spaclient"
)

// The read-heavy mixed workload behind [S8]. The scenario replay [S6]
// interleaves reads and writes in session order, which measures a deployed
// traffic shape but ties the read rate to the session script. RunMixed
// instead pins the mix at a fixed read fraction (90/10 per the roadmap) and
// drives both sides as fast as the daemon allows, so the read tail directly
// exposes whether reads wait behind writers: under the epoch-snapshot read
// path (DESIGN.md §8) a read never takes a shard lock and its p99 stays at
// in-memory scale even while commits hold shard write locks across fsync.
//
// Each client lane owns a disjoint user span for writes (per-user event
// order stays monotone without cross-lane coordination, exactly the
// loadgen's lane model) while reads target the whole population uniformly,
// so readers and writers collide on shards by construction.

// MixedConfig parameterizes one mixed read/write run.
type MixedConfig struct {
	// BaseURL locates the daemon.
	BaseURL string
	// Seed derives every lane's operation sequence.
	Seed uint64
	// Users is the population size (default Users). Writes partition it
	// across lanes; reads draw from all of it.
	Users int
	// Clients is the number of concurrent lanes (default Workers).
	Clients int
	// Ops is the total operation count across lanes (default 400).
	Ops int
	// ReadFraction is the probability an operation is a read (default 0.9).
	ReadFraction float64
	// EventsPerWrite sizes each write burst (default 8).
	EventsPerWrite int
	// TopK is the select-top depth (default 10).
	TopK int
	// Register creates the population first (conflicts on rerun are fine).
	Register bool
	// Timeout bounds each request (default 30s).
	Timeout time.Duration
	// ReadFrom lists follower base URLs; when set, every lane's client
	// spreads its reads round-robin across the primary and these replicas
	// ([S8] — the two-node read-scaling measurement). Writes always go to
	// BaseURL.
	ReadFrom []string
	// MaxStalenessWaves bounds how far a follower may lag and still take
	// routed reads (spaclient.Options.MaxStalenessWaves).
	MaxStalenessWaves uint64
}

// MixedResult is one mixed run's measurement, split like the scenario
// result so both serving paths report throughput and tail latency.
type MixedResult struct {
	Ops      int `json:"ops"`
	ReadOps  int `json:"read_ops"`
	WriteOps int `json:"write_ops"`
	Events   int `json:"events"`
	// ColdReads counts reads answered 409 before the CF or propensity model
	// was ready — expected early in a run, not errors.
	ColdReads int           `json:"cold_reads"`
	Errors    int           `json:"errors"`
	Duration  time.Duration `json:"duration_ns"`

	ReadOpsPerSec     float64       `json:"read_ops_per_sec"`
	WriteEventsPerSec float64       `json:"write_events_per_sec"`
	ReadP50           time.Duration `json:"read_p50_ns"`
	ReadP95           time.Duration `json:"read_p95_ns"`
	ReadP99           time.Duration `json:"read_p99_ns"`
	WriteP50          time.Duration `json:"write_p50_ns"`
	WriteP95          time.Duration `json:"write_p95_ns"`
	WriteP99          time.Duration `json:"write_p99_ns"`
}

// mixedLaneStats is one lane's tally, merged after the barrier.
type mixedLaneStats struct {
	readLat  []time.Duration
	writeLat []time.Duration
	events   int
	cold     int
	errs     int
}

// RunMixed drives the fixed-fraction mixed workload against a live daemon.
// Setup failures return an error; per-operation failures are counted in
// Errors so one refused request does not void the measurement.
func RunMixed(cfg MixedConfig) (MixedResult, error) {
	if cfg.BaseURL == "" {
		return MixedResult{}, errors.New("scalebench: mixed run needs a base URL")
	}
	if cfg.Users <= 0 {
		cfg.Users = Users
	}
	if cfg.Clients <= 0 {
		cfg.Clients = Workers
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	if cfg.ReadFraction <= 0 || cfg.ReadFraction >= 1 {
		cfg.ReadFraction = 0.9
	}
	if cfg.EventsPerWrite <= 0 {
		cfg.EventsPerWrite = 8
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Users < cfg.Clients {
		return MixedResult{}, fmt.Errorf("scalebench: %d users cannot span %d lanes", cfg.Users, cfg.Clients)
	}

	clients := make([]*spaclient.Client, cfg.Clients)
	for i := range clients {
		clients[i] = spaclient.New(cfg.BaseURL, spaclient.Options{
			Timeout:           cfg.Timeout,
			ReadFrom:          cfg.ReadFrom,
			MaxStalenessWaves: cfg.MaxStalenessWaves,
		})
	}
	if cfg.Register {
		if err := registerPopulation(clients, cfg.Users); err != nil {
			return MixedResult{}, err
		}
	}

	span := cfg.Users / cfg.Clients
	stats := make([]mixedLaneStats, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < cfg.Clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			runMixedLane(cfg, clients[lane], lane, span, &stats[lane])
		}(lane)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := MixedResult{Duration: elapsed}
	var readLat, writeLat []time.Duration
	for i := range stats {
		readLat = append(readLat, stats[i].readLat...)
		writeLat = append(writeLat, stats[i].writeLat...)
		res.Events += stats[i].events
		res.ColdReads += stats[i].cold
		res.Errors += stats[i].errs
	}
	res.ReadOps = len(readLat)
	res.WriteOps = len(writeLat)
	res.Ops = res.ReadOps + res.WriteOps
	sort.Slice(readLat, func(i, j int) bool { return readLat[i] < readLat[j] })
	sort.Slice(writeLat, func(i, j int) bool { return writeLat[i] < writeLat[j] })
	if secs := elapsed.Seconds(); secs > 0 {
		res.ReadOpsPerSec = float64(res.ReadOps) / secs
		res.WriteEventsPerSec = float64(res.Events) / secs
	}
	res.ReadP50 = percentile(readLat, 0.50)
	res.ReadP95 = percentile(readLat, 0.95)
	res.ReadP99 = percentile(readLat, 0.99)
	res.WriteP50 = percentile(writeLat, 0.50)
	res.WriteP95 = percentile(writeLat, 0.95)
	res.WriteP99 = percentile(writeLat, 0.99)
	return res, nil
}

// runMixedLane executes one lane's share of the operation budget. Writes
// stay inside the lane's user span with a lane-local monotone clock;
// reads draw from the whole population.
func runMixedLane(cfg MixedConfig, c *spaclient.Client, lane, span int, st *mixedLaneStats) {
	r := rng.New(cfg.Seed ^ (uint64(lane)+1)*0x9e3779b97f4a7c15)
	ops := cfg.Ops / cfg.Clients
	if lane < cfg.Ops%cfg.Clients {
		ops++
	}
	base := uint64(lane * span)
	cursor := clock.Epoch
	next := 0 // round-robin write target within the span
	for op := 0; op < ops; op++ {
		if r.Bool(cfg.ReadFraction) {
			user := uint64(r.Intn(cfg.Users) + 1)
			t0 := time.Now()
			err := mixedRead(c, r, user, cfg.TopK)
			lat := time.Since(t0)
			switch {
			case err == nil:
				st.readLat = append(st.readLat, lat)
			case isStatus(err, http.StatusConflict):
				st.cold++
				st.readLat = append(st.readLat, lat)
			default:
				st.errs++
			}
			continue
		}
		events := make([]lifelog.Event, cfg.EventsPerWrite)
		for i := range events {
			id := base + uint64(next+1)
			next = (next + 1) % span
			cursor = cursor.Add(time.Second)
			events[i] = lifelog.Event{
				UserID: id,
				Time:   cursor,
				Type:   lifelog.EventClick,
				Action: uint32(r.Intn(lifelog.ActionUniverse)),
			}
		}
		t0 := time.Now()
		resp, err := c.Ingest(events)
		lat := time.Since(t0)
		if err != nil {
			st.errs++
			continue
		}
		st.writeLat = append(st.writeLat, lat)
		st.events += resp.Processed
	}
}

// mixedRead issues one read from the mixed workload: recommendation pulls
// dominate, with advice, propensity, and select-top filling out the
// non-ingest read surface.
func mixedRead(c *spaclient.Client, r *rng.RNG, user uint64, topK int) error {
	switch roll := r.Intn(100); {
	case roll < 50:
		_, err := c.Recommend(user, 10)
		return err
	case roll < 70:
		_, err := c.Advise(user, "training")
		return err
	case roll < 90:
		_, err := c.Propensity(user)
		return err
	default:
		_, err := c.SelectTop(topK)
		return err
	}
}
