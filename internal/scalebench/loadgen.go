package scalebench

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/lifelog"
	"repro/internal/spaclient"
	"repro/internal/wire"
)

// The loadgen harness behind [S3], [S5] and spabench -loadgen: drive a live
// spad over its real wire protocol with K concurrent clients and measure
// what the serving layer delivers — throughput, per-request latency
// percentiles, and how well the cross-request coalescer is batching. The
// workload is the shared burst shape (MakeBursts), shifted so each client
// owns a disjoint user range:
// cross-client coalescing then can never violate per-user event order, the
// same contract production traffic has when each device uploads its own
// user's LifeLog.

// LoadgenConfig parameterizes one loadgen run.
type LoadgenConfig struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:8372".
	BaseURL string
	// Clients is the number of concurrent clients (default Workers).
	Clients int
	// Requests is the total ingest-request budget, split evenly across
	// clients (default 48).
	Requests int
	// Register creates each client's user range first. Conflicts (already
	// registered, e.g. on a second run against the same daemon) are fine.
	Register bool
	// UsersPerRequest is the burst width of one ingest request (default 8
	// users × PerUser events — a device-upload-sized payload; the wide
	// 64-user bursts are an in-process shape, not a wire shape).
	UsersPerRequest int
	// Timeout bounds each request (default 30 s — a full queue with sync
	// writes can make tail latencies grow well past interactive defaults).
	Timeout time.Duration
	// JSONOnly forces the clients onto the JSON ingest path instead of the
	// binary framing — the [S3] measurement baseline.
	JSONOnly bool
	// Stream drives each client through one persistent binary stream
	// (StreamIngester) instead of per-request HTTP: StreamWindow worker
	// lanes share the client's connection, so up to StreamWindow frames
	// pipeline in flight per stream — the capability per-request HTTP/1.1
	// lacks, and what the [S5] section measures.
	Stream bool
	// StreamWindow is the in-flight frame depth per stream (default 4,
	// bounded by the server's credit grant). Ignored without Stream.
	StreamWindow int
}

// LoadgenResult is one run's measurement.
type LoadgenResult struct {
	Clients  int           `json:"clients"`
	Requests int           `json:"requests"`
	Events   int           `json:"events"`
	Errors   int           `json:"errors"`
	Duration time.Duration `json:"duration_ns"`
	// EventsPerSec is end-to-end ingest throughput over the wire.
	EventsPerSec float64 `json:"events_per_sec"`
	// P50/P95/P99 are per-request round-trip latencies.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	// MeanCoalesced averages the server-reported commit group size over
	// requests; 1.0 means no cross-request batching happened.
	MeanCoalesced float64 `json:"mean_coalesced"`
	MaxCoalesced  int     `json:"max_coalesced"`
}

// RunLoadgen registers (optionally) and then hammers the daemon, returning
// aggregate measurements. An error means the run itself could not execute;
// per-request failures are counted in Errors.
func RunLoadgen(cfg LoadgenConfig) (LoadgenResult, error) {
	if cfg.BaseURL == "" {
		return LoadgenResult{}, errors.New("scalebench: loadgen needs a base URL")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = Workers
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 48
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.UsersPerRequest <= 0 {
		cfg.UsersPerRequest = 8
	}
	// A lane is one synchronous request loop over its own disjoint user
	// range. Per-request mode runs one lane per client (stop-and-wait, the
	// HTTP/1.1 reality); stream mode runs StreamWindow lanes per client,
	// all multiplexed onto that client's one stream connection, so the
	// stream carries up to StreamWindow frames in flight.
	window := 1
	if cfg.Stream {
		window = cfg.StreamWindow
		if window <= 0 {
			window = 4
		}
	}
	lanes := cfg.Clients * window
	perLane := (cfg.Requests + lanes - 1) / lanes
	// Each lane owns span users: a window of W lanes splits its client's
	// Users-wide range W ways, so the total population (Clients × Users)
	// is identical whichever transport runs — the comparison varies only
	// the wire, never the data shape. That invariant only holds when the
	// window divides Users exactly and the span still fits a whole
	// request's burst, so reject configs that would silently skew the
	// population instead of patching the span.
	span := Users / window
	if span*window != Users {
		return LoadgenResult{}, fmt.Errorf(
			"scalebench: stream window %d must divide the %d-user client range", window, Users)
	}
	if span < cfg.UsersPerRequest {
		return LoadgenResult{}, fmt.Errorf(
			"scalebench: window %d leaves %d users per lane, fewer than the %d each request needs",
			window, span, cfg.UsersPerRequest)
	}

	clients := make([]*spaclient.Client, lanes)
	for k := range clients {
		clients[k] = spaclient.New(cfg.BaseURL, spaclient.Options{Timeout: cfg.Timeout, DisableBinary: cfg.JSONOnly})
	}
	if cfg.Register {
		if err := registerRanges(clients, span); err != nil {
			return LoadgenResult{}, err
		}
	}
	ingest := make([]func([]lifelog.Event) (wire.IngestResponse, error), lanes)
	if cfg.Stream {
		streams := make([]*spaclient.StreamIngester, cfg.Clients)
		for s := range streams {
			streams[s] = clients[s*window].Stream(spaclient.StreamOptions{Timeout: cfg.Timeout})
			defer streams[s].Close()
		}
		for k := range ingest {
			ingest[k] = streams[k/window].Ingest
		}
	} else {
		for k := range ingest {
			ingest[k] = clients[k].Ingest
		}
	}

	type clientStats struct {
		latencies []time.Duration
		events    int
		errors    int
		coalesced int
		maxCo     int
	}
	stats := make([]clientStats, lanes)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < lanes; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			st := &stats[k]
			burstSet := MakeBurstsSpan(uint64(k)*uint64(span), span, cfg.UsersPerRequest)
			for r := 0; r < perLane; r++ {
				burst := burstSet[r%len(burstSet)]
				t1 := time.Now()
				resp, err := ingest[k](burst)
				st.latencies = append(st.latencies, time.Since(t1))
				if err != nil {
					st.errors++
					continue
				}
				st.events += resp.Processed
				st.coalesced += resp.CoalescedWith
				if resp.CoalescedWith > st.maxCo {
					st.maxCo = resp.CoalescedWith
				}
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := LoadgenResult{
		Clients:  cfg.Clients,
		Requests: perLane * lanes,
		Duration: elapsed,
	}
	var all []time.Duration
	okRequests := 0
	coalescedSum := 0
	for _, st := range stats {
		all = append(all, st.latencies...)
		res.Events += st.events
		res.Errors += st.errors
		okRequests += len(st.latencies) - st.errors
		coalescedSum += st.coalesced
		if st.maxCo > res.MaxCoalesced {
			res.MaxCoalesced = st.maxCo
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50 = percentile(all, 0.50)
	res.P95 = percentile(all, 0.95)
	res.P99 = percentile(all, 0.99)
	if secs := elapsed.Seconds(); secs > 0 {
		res.EventsPerSec = float64(res.Events) / secs
	}
	if okRequests > 0 {
		res.MeanCoalesced = float64(coalescedSum) / float64(okRequests)
	}
	return res, nil
}

// registerRanges creates every lane's span-wide user range, in parallel
// per lane; "already registered" answers are expected on reruns.
func registerRanges(clients []*spaclient.Client, span int) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(clients))
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *spaclient.Client) {
			defer wg.Done()
			offset := uint64(k) * uint64(span)
			for u := 1; u <= span; u++ {
				err := c.Register(offset+uint64(u), nil)
				var apiErr *spaclient.APIError
				if err != nil && !(errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict) {
					errCh <- fmt.Errorf("registering user %d: %w", offset+uint64(u), err)
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
