// Package spaclient is the Go client of the spad wire API
// (internal/server): typed methods over the protocol defined in
// internal/wire, with connection reuse and request timeouts. Ingest always
// speaks the binary SPAB framing — one request per batch (Client.Ingest) or
// frames multiplexed on one long-lived connection (StreamIngester,
// stream.go); everything else is HTTP/JSON. Examples, load generators and
// operational tooling all speak the real wire format through this package
// instead of reimplementing it.
package spaclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lifelog"
	"repro/internal/wire"
)

// Options tune the client. The zero value selects a 15 s request timeout
// and a dedicated keep-alive transport.
type Options struct {
	// Timeout bounds one request round-trip (default 15 s).
	Timeout time.Duration
	// ReadFrom lists follower base URLs to route read requests to
	// (readroute.go). Empty keeps every request on the primary. Writes
	// always go to the primary; reads round-robin across followers whose
	// replication status is streaming and within MaxStalenessWaves, and
	// fall back to the primary when no follower qualifies or a routed
	// request fails.
	ReadFrom []string
	// MaxStalenessWaves bounds how many waves behind the leader a
	// follower may report and still serve this client's reads: the lag is
	// counted in log records (wire.ReplicationStatus.LagWaves), one per
	// ingest wave and one per single-profile write. Zero demands a
	// follower that reported no lag at its last status poll.
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
	base string
	hc   *http.Client

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
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 15 * time.Second
	}
	hc := &http.Client{
		Timeout: timeout,
		// Connection reuse across many small JSON calls is the whole
		// game for loopback throughput; raise the per-host idle pool
		// above the default 2 so K concurrent clients in one process
		// (the loadgen) don't thrash dials.
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			// spad never compresses a response: offering gzip would
			// only cost a header on every request and its parse.
			DisableCompression: true,
		},
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: hc, maxStale: opts.MaxStalenessWaves}
	for _, base := range opts.ReadFrom {
		c.replicas = append(c.replicas, &replica{base: strings.TrimRight(base, "/")})
	}
	if opts.Cluster {
		c.cluster = &clusterRouter{}
	}
	return c
}

// APIError is a non-2xx wire response, or a stream's refusal carrying the
// same status.
type APIError struct {
	Status  int
	Message string
	// Owner is the wire.OwnerHeader of a 421 cluster bounce: the host:port
	// of the node that owns the request's user slot (empty otherwise).
	Owner string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("spaclient: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
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
	apiErr.Owner = resp.Header.Get(wire.OwnerHeader)
	return apiErr
}

// decodeFunc parses a 2xx response body. The body's buffer is reused once
// the call returns, so nothing decoded may point into it.
type decodeFunc func(body []byte) error

// into decodes the body into out with encoding/json.
func into(out any) decodeFunc {
	return func(body []byte) error { return json.Unmarshal(body, out) }
}

// bodyBufs recycles response-body buffers across requests.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// readBody reads a response body into buf, growing it as needed.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// do runs one JSON round-trip against the primary; decode may be nil.
func (c *Client) do(method, path string, in any, decode decodeFunc) error {
	return c.doAt(c.base, method, path, in, decode)
}

// doAt runs one JSON round-trip against an explicit base URL: in (if not
// nil) is the JSON request body, and decode (if not nil) parses a 2xx
// answer.
func (c *Client) doAt(base, method, path string, in any, decode decodeFunc) error {
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
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	raw, err := readBody(resp.Body, (*bp)[:0])
	*bp = raw
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return apiError(resp, raw)
	}
	if decode == nil {
		return nil
	}
	return decode(raw)
}

// userPath is "/v1/users/{userID}/{leaf}{query}", built in one string.
func userPath(userID uint64, leaf, query string) string {
	b := strconv.AppendUint(append(make([]byte, 0, 64), "/v1/users/"...), userID, 10)
	return string(append(append(append(b, '/'), leaf...), query...))
}

// Register creates a Smart User Model.
func (c *Client) Register(userID uint64, objective []float64) error {
	return c.doUser(userID, "POST", "/v1/users", wire.RegisterRequest{UserID: userID, Objective: objective}, nil)
}

// Ingest submits one event batch in the binary framing and returns the
// server's outcome. In cluster mode the batch is split by owning node (one
// request per owner, counts summed); a group that fails mid-batch returns
// the error with the totals of the groups already committed.
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

// ingestAt runs one binary-framed ingest round-trip against an explicit
// base.
func (c *Client) ingestAt(base string, events []lifelog.Event) (wire.IngestResponse, error) {
	frame := wire.AppendIngestRequestEvents(nil, events)
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
	out, err := wire.DecodeIngestResponse(raw)
	if err != nil {
		return wire.IngestResponse{}, fmt.Errorf("spaclient: decoding response: %w", err)
	}
	return out, nil
}

// NextQuestion fetches the user's next Gradual EIT item.
func (c *Client) NextQuestion(userID uint64) (wire.Question, error) {
	var q wire.Question
	err := c.doUser(userID, "GET", userPath(userID, "question", ""), nil, into(&q))
	return q, err
}

// SubmitAnswer applies a Gradual EIT answer.
func (c *Client) SubmitAnswer(userID uint64, itemID, option int) error {
	return c.doUser(userID, "POST", userPath(userID, "answer", ""), wire.AnswerRequest{ItemID: itemID, Option: option}, nil)
}

// Reward applies positive reinforcement for the named attributes.
func (c *Client) Reward(userID uint64, attributes []string) error {
	return c.doUser(userID, "POST", userPath(userID, "reward", ""), wire.AttributesRequest{Attributes: attributes}, nil)
}

// Punish applies negative reinforcement for the named attributes.
func (c *Client) Punish(userID uint64, attributes []string) error {
	return c.doUser(userID, "POST", userPath(userID, "punish", ""), wire.AttributesRequest{Attributes: attributes}, nil)
}

// Propensity returns the user's calibrated response probability.
func (c *Client) Propensity(userID uint64) (float64, error) {
	var p float64
	err := c.doUserRead(userID, userPath(userID, "propensity", ""), func(body []byte) (err error) {
		p, err = decodePropensity(body)
		return err
	})
	return p, err
}

// Sensibilities returns the user's absolute sensibility weights by
// attribute name.
func (c *Client) Sensibilities(userID uint64) (map[string]float64, error) {
	var m map[string]float64
	err := c.doUserRead(userID, userPath(userID, "sensibilities", ""), func(body []byte) (err error) {
		m, err = decodeSensibilities(body)
		return err
	})
	return m, err
}

// Advise returns the SUM advice-stage excitation vector for a domain.
func (c *Client) Advise(userID uint64, domain string) (wire.AdviceResponse, error) {
	var resp wire.AdviceResponse
	err := c.doUserRead(userID, userPath(userID, "advice", "?domain="+url.QueryEscape(domain)), func(body []byte) (err error) {
		resp, err = decodeAdvice(body, domain)
		return err
	})
	return resp, err
}

// Recommend returns the top-n individualized actions.
func (c *Client) Recommend(userID uint64, n int) ([]wire.Recommendation, error) {
	var recs []wire.Recommendation
	err := c.doUserRead(userID, userPath(userID, "recommendations", "?n="+strconv.Itoa(n)), func(body []byte) (err error) {
		recs, err = decodeRecommend(body)
		return err
	})
	return recs, err
}

// SelectTop returns the k users with the highest propensity. In cluster
// mode the answer is node-local (the daemon scans only users it owns);
// a cluster-wide top-k is the caller's merge across nodes.
func (c *Client) SelectTop(k int) ([]uint64, error) {
	var ids []uint64
	err := c.doRead("/v1/select-top?k="+strconv.Itoa(k), func(body []byte) (err error) {
		ids, err = decodeSelectTop(body)
		return err
	})
	return ids, err
}

// Health probes liveness.
func (c *Client) Health() (wire.Health, error) {
	var h wire.Health
	err := c.do("GET", "/healthz", nil, into(&h))
	return h, err
}

// Metrics snapshots the daemon's counters.
func (c *Client) Metrics() (wire.Metrics, error) {
	var m wire.Metrics
	err := c.do("GET", "/metrics", nil, into(&m))
	return m, err
}

// ReplicationStatus reports the primary's replication role and positions.
func (c *Client) ReplicationStatus() (wire.ReplicationStatus, error) {
	var st wire.ReplicationStatus
	err := c.do("GET", "/v1/replication/status", nil, into(&st))
	return st, err
}
