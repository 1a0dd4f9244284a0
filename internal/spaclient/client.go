// Package spaclient is the Go client of the spad wire API
// (internal/server): typed methods over the HTTP/JSON protocol defined in
// internal/wire, with connection reuse, request timeouts, and a batching
// Ingester helper (ingester.go) for high-volume event submission. Examples,
// load generators and operational tooling all speak the real wire format
// through this package instead of reimplementing it.
package spaclient

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/lifelog"
	"repro/internal/wire"
)

// Options tune the client. The zero value selects a 15 s request timeout,
// a dedicated keep-alive transport, and binary ingest framing with JSON
// fallback.
type Options struct {
	// Timeout bounds one request round-trip (default 15 s).
	Timeout time.Duration
	// HTTPClient overrides the underlying client entirely (its own Timeout
	// then wins); nil builds one with pooled keep-alive connections.
	HTTPClient *http.Client
	// DisableBinary forces JSON on the ingest path. The default prefers
	// the binary framing and falls back permanently (per client) the first
	// time the server answers 415 — so the same client works against a
	// pre-framing build or an older daemon run with the framing off.
	DisableBinary bool
	// ReadFrom lists follower base URLs to route read requests to
	// (readroute.go). Empty keeps every request on the primary. Writes
	// always go to the primary; reads round-robin across followers whose
	// replication status is streaming and within MaxStalenessWaves, and
	// fall back to the primary when no follower qualifies or a routed
	// request fails.
	ReadFrom []string
	// MaxStalenessWaves bounds how many waves behind the leader a
	// follower may report and still serve this client's reads. Zero
	// demands a follower that reported no lag at its last status poll.
	MaxStalenessWaves uint64
	// Cluster enables topology-aware routing (topology.go): the client
	// fetches the slot map from BaseURL's /v1/topology, routes user-keyed
	// requests to the owning node, splits Ingest batches by owner, and on
	// a 421 bounce retries once against the owner the server named. User
	// reads then follow the topology, not ReadFrom. Harmless against a
	// standalone daemon: with no topology everything stays on BaseURL.
	Cluster bool
}

// Client talks to one spad instance. Safe for concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	jsonOnly atomic.Bool // flipped on by Options.DisableBinary or a 415

	// Follower read routing (readroute.go); replicas is empty when the
	// client is pinned to the primary.
	replicas []*replica
	maxStale uint64
	rr       atomic.Uint64

	// Cluster routing (topology.go); nil outside cluster mode.
	cluster *clusterRouter
}

// New creates a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8372").
func New(baseURL string, opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		timeout := opts.Timeout
		if timeout == 0 {
			timeout = 15 * time.Second
		}
		hc = &http.Client{
			Timeout: timeout,
			// Connection reuse across many small JSON calls is the whole
			// game for loopback throughput; raise the per-host idle pool
			// above the default 2 so K concurrent clients in one process
			// (the loadgen) don't thrash dials.
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: hc, maxStale: opts.MaxStalenessWaves}
	c.jsonOnly.Store(opts.DisableBinary)
	for _, base := range opts.ReadFrom {
		c.replicas = append(c.replicas, &replica{base: strings.TrimRight(base, "/")})
	}
	if opts.Cluster {
		c.cluster = &clusterRouter{}
	}
	return c
}

// APIError is a non-2xx wire response. RetryAfter is the server's requested
// backoff (zero when absent) — set on 503 admission-control rejections.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
	// Owner is the wire.OwnerHeader of a 421 cluster bounce: the host:port
	// of the node that owns the request's user slot (empty otherwise).
	Owner string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("spaclient: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// Temporary reports whether the request may succeed if retried (the
// admission-control 503).
func (e *APIError) Temporary() bool { return e.Status == http.StatusServiceUnavailable }

// maxRetryAfter caps the backoff a server can dictate: an operator typo or
// a far-future HTTP-date must not park a client for hours.
const maxRetryAfter = 30 * time.Second

// parseRetryAfter reads a Retry-After header in either RFC 9110 form —
// delay-seconds or an HTTP-date — and clamps the result to
// [0, maxRetryAfter]. Unparseable values yield zero (caller picks its own
// default backoff).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(h); err == nil {
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(h); err == nil {
		d = time.Until(t)
	}
	return min(max(d, 0), maxRetryAfter)
}

// apiError builds the typed error for a non-2xx response. Error bodies are
// always the JSON wire.Error, on the binary ingest path too.
func apiError(resp *http.Response, raw []byte) *APIError {
	apiErr := &APIError{Status: resp.StatusCode}
	var e wire.Error
	if json.Unmarshal(raw, &e) == nil && e.Message != "" {
		apiErr.Message = e.Message
	} else {
		apiErr.Message = strings.TrimSpace(string(raw))
	}
	apiErr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	apiErr.Owner = resp.Header.Get(wire.OwnerHeader)
	return apiErr
}

// do runs one JSON round-trip against the primary; out may be nil.
func (c *Client) do(method, path string, in, out any) error {
	return c.doAt(c.base, method, path, in, out)
}

// doAt runs one JSON round-trip against an explicit base URL.
func (c *Client) doAt(base, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("spaclient: encoding request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return apiError(resp, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func userPath(userID uint64, leaf string) string {
	return fmt.Sprintf("/v1/users/%d/%s", userID, leaf)
}

// Register creates a Smart User Model.
func (c *Client) Register(userID uint64, objective []float64) error {
	return c.doUser(userID, "POST", "/v1/users", wire.RegisterRequest{UserID: userID, Objective: objective}, nil)
}

// Ingest submits one event batch and returns the server's outcome. It
// prefers the binary framing (the hot path skips JSON encode/decode
// entirely); a 415 flips this client to JSON permanently and the batch is
// retried transparently, so callers never see the negotiation. In cluster
// mode the batch is split by owning node (one request per owner, counts
// summed); a group that fails mid-batch returns the error with the totals
// of the groups already committed.
func (c *Client) Ingest(events []lifelog.Event) (wire.IngestResponse, error) {
	if c.cluster == nil {
		return c.ingestAt(c.base, events)
	}
	groups := c.splitByOwner(events)
	if len(groups) == 0 {
		// Empty batches keep the single-node semantics (server answers
		// processed: 0) rather than short-circuiting client-side.
		return c.ingestRouted(ingestGroup{base: c.base})
	}
	var total wire.IngestResponse
	for _, g := range groups {
		resp, err := c.ingestRouted(g)
		mergeIngest(&total, resp)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ingestAt runs one ingest round-trip against an explicit base, with the
// binary-then-JSON negotiation.
func (c *Client) ingestAt(base string, events []lifelog.Event) (wire.IngestResponse, error) {
	if !c.jsonOnly.Load() {
		resp, err := c.ingestBinary(base, events)
		var apiErr *APIError
		if err == nil || !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnsupportedMediaType {
			return resp, err
		}
		// The daemon refused the framing (an older build switched it off,
		// or predates it and mapped the body to 415): speak JSON from here
		// on.
		c.jsonOnly.Store(true)
	}
	var resp wire.IngestResponse
	err := c.doAt(base, "POST", "/v1/ingest", wire.IngestRequest{Events: wire.FromEvents(events)}, &resp)
	return resp, err
}

// ingestBinary runs one binary-framed ingest round-trip.
func (c *Client) ingestBinary(base string, events []lifelog.Event) (wire.IngestResponse, error) {
	frame := wire.EncodeIngestRequest(wire.FromEvents(events))
	req, err := http.NewRequest("POST", base+"/v1/ingest", bytes.NewReader(frame))
	if err != nil {
		return wire.IngestResponse{}, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := c.hc.Do(req)
	if err != nil {
		return wire.IngestResponse{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return wire.IngestResponse{}, err
	}
	if resp.StatusCode >= 300 {
		return wire.IngestResponse{}, apiError(resp, raw)
	}
	if wire.IsBinaryContentType(resp.Header.Get("Content-Type")) {
		out, err := wire.DecodeIngestResponse(raw)
		if err != nil {
			return wire.IngestResponse{}, fmt.Errorf("spaclient: decoding response: %w", err)
		}
		return out, nil
	}
	// A proxy or an older daemon answered 2xx in JSON; accept it.
	var out wire.IngestResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return wire.IngestResponse{}, fmt.Errorf("spaclient: decoding response: %w", err)
	}
	return out, nil
}

// NextQuestion fetches the user's next Gradual EIT item.
func (c *Client) NextQuestion(userID uint64) (wire.Question, error) {
	var q wire.Question
	err := c.doUser(userID, "GET", userPath(userID, "question"), nil, &q)
	return q, err
}

// SubmitAnswer applies a Gradual EIT answer.
func (c *Client) SubmitAnswer(userID uint64, itemID, option int) error {
	return c.doUser(userID, "POST", userPath(userID, "answer"), wire.AnswerRequest{ItemID: itemID, Option: option}, nil)
}

// Reward applies positive reinforcement for the named attributes.
func (c *Client) Reward(userID uint64, attributes []string) error {
	return c.doUser(userID, "POST", userPath(userID, "reward"), wire.AttributesRequest{Attributes: attributes}, nil)
}

// Punish applies negative reinforcement for the named attributes.
func (c *Client) Punish(userID uint64, attributes []string) error {
	return c.doUser(userID, "POST", userPath(userID, "punish"), wire.AttributesRequest{Attributes: attributes}, nil)
}

// Propensity returns the user's calibrated response probability.
func (c *Client) Propensity(userID uint64) (float64, error) {
	var resp wire.PropensityResponse
	err := c.doUserRead(userID, userPath(userID, "propensity"), &resp)
	return resp.Propensity, err
}

// Sensibilities returns the user's absolute sensibility weights by
// attribute name.
func (c *Client) Sensibilities(userID uint64) (map[string]float64, error) {
	var resp wire.SensibilitiesResponse
	err := c.doUserRead(userID, userPath(userID, "sensibilities"), &resp)
	return resp.Sensibilities, err
}

// Advise returns the SUM advice-stage excitation vector for a domain.
func (c *Client) Advise(userID uint64, domain string) (wire.AdviceResponse, error) {
	var resp wire.AdviceResponse
	err := c.doUserRead(userID, userPath(userID, "advice")+"?domain="+url.QueryEscape(domain), &resp)
	return resp, err
}

// Recommend returns the top-n individualized actions.
func (c *Client) Recommend(userID uint64, n int) ([]wire.Recommendation, error) {
	var resp wire.RecommendResponse
	err := c.doUserRead(userID, fmt.Sprintf("%s?n=%d", userPath(userID, "recommendations"), n), &resp)
	return resp.Recommendations, err
}

// SelectTop returns the k users with the highest propensity. In cluster
// mode the answer is node-local (the daemon scans only users it owns);
// a cluster-wide top-k is the caller's merge across nodes.
func (c *Client) SelectTop(k int) ([]uint64, error) {
	var resp wire.SelectTopResponse
	err := c.doRead("/v1/select-top?k="+strconv.Itoa(k), &resp)
	return resp.UserIDs, err
}

// Health probes liveness.
func (c *Client) Health() (wire.Health, error) {
	var h wire.Health
	err := c.do("GET", "/healthz", nil, &h)
	return h, err
}

// Metrics snapshots the daemon's counters.
func (c *Client) Metrics() (wire.Metrics, error) {
	var m wire.Metrics
	err := c.do("GET", "/metrics", nil, &m)
	return m, err
}

// ReplicationStatus reports the primary's replication role and positions.
func (c *Client) ReplicationStatus() (wire.ReplicationStatus, error) {
	var st wire.ReplicationStatus
	err := c.do("GET", "/v1/replication/status", nil, &st)
	return st, err
}
