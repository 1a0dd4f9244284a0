// Package server is the SPA serving layer: an HTTP/JSON daemon wrapping the
// *core.SPA facade so the platform is reachable by a live user population
// instead of only in-process callers — the paper's SPA as an online service.
//
// The API surface mirrors the facade: register, ingest, next-question /
// submit-answer, reward / punish, propensity, select-top, advise, recommend,
// plus /healthz and a /metrics snapshot. Ingest requests do not hit the core
// directly: they pass through a cross-request coalescer (coalescer.go) that
// merges concurrent arrivals into one group commit, with a bounded pending
// queue as admission control — when it is full the server answers
// 503 + Retry-After instead of queueing unboundedly. Ingest is also
// reachable as a persistent binary stream (stream.go): an HTTP upgrade on
// /v1/ingest/stream or a raw TCP listener (ServeStream), flow-controlled
// by server-granted credit instead of 503s, feeding the same coalescer.
// Close drains stream sessions and then the coalescer, so accepted
// requests are never dropped by a shutdown.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// Options tune the serving layer. The zero value is a sensible production
// default: 256-deep pending queue, waves of up to 64 requests, no linger.
type Options struct {
	// QueueDepth bounds the pending ingest queue (default 256). A full
	// queue rejects with 503 + Retry-After.
	QueueDepth int
	// MaxBatch caps how many requests merge into one group commit
	// (default 64).
	MaxBatch int
	// MaxDelay lets the dispatcher linger to gather a fuller batch. Zero
	// commits whatever is already pending: with durable sync writes the
	// in-flight commit itself is the natural batching window.
	MaxDelay time.Duration
	// Deprecated: ignored; the pipelined dispatcher is the only one (bench/ still sets it).
	Pipeline bool
	// MaxBodyBytes caps one request body (default 8 MiB); larger bodies
	// answer 413 before any decoding buffers them.
	MaxBodyBytes int64
	// DisableBinary refuses the binary ingest framing with 415, forcing
	// every client back onto JSON — an escape hatch for debugging with
	// curl/tcpdump-friendly traffic (spad -no-binary). It also disables
	// the streamed ingest endpoint (streams are binary-only).
	DisableBinary bool
	// StreamWindow is the per-stream credit grant: ingest frames one
	// stream client may have in flight (default 32).
	StreamWindow int
	// StreamDrainWait bounds how long Close waits for a stream client to
	// acknowledge the drain frame (default 5s).
	StreamDrainWait time.Duration
	// SlowWave logs a line for every coalescer wave whose gather→commit
	// total meets the threshold (spad -slow-wave); zero disables.
	SlowWave time.Duration
	// AccessLog logs one line per completed HTTP request — method, path,
	// status, bytes, duration (spad -access-log). The duration shares the
	// endpoint histogram's clock, so a logged line and the histogram agree.
	AccessLog bool
	// Logf receives slow-wave and access-log lines (default log.Printf);
	// tests substitute a recorder.
	Logf func(format string, args ...any)

	// FollowerOf makes this server a replication follower of the given
	// leader (host:port or URL). A follower applies the leader's waves
	// through the core — every read API works — and answers writes with
	// 421 + an X-SPA-Leader header naming where they belong. Requires a
	// durable core (replication ships the WAL).
	FollowerOf string
	// ReplWindow is the wave credit a follower grants its leader — waves
	// in flight before the leader must wait for acks (default 256).
	ReplWindow int
	// FollowerBootstrapBytes seeds the repl_snapshot_bytes counter with
	// the size of the snapshot BootstrapFollower restored before the core
	// opened, so the follower's metrics account for its own bootstrap.
	FollowerBootstrapBytes int64

	// ClusterNodeID makes this server a cluster node (cluster.go): it
	// serves only the keyspace slots it owns, bounces the rest with
	// 421 + X-SPA-Owner, exposes the slot map on /v1/topology, and takes
	// part in shard handoffs (spad -cluster). Mutually exclusive with
	// FollowerOf: a node is either a partition owner or a read replica.
	ClusterNodeID string
	// ClusterAddr is this node's advertised host:port — the address peers
	// and bounced clients are told to dial. Required with ClusterNodeID.
	ClusterAddr string
	// ClusterPeers maps peer node IDs to their advertised addresses
	// (spad -peers id=addr,...). The deterministic epoch-1 slot map
	// round-robins over the sorted IDs of peers ∪ self.
	ClusterPeers map[string]string
	// ClusterDir persists topology.json across restarts (usually the data
	// dir); empty keeps the map in memory only.
	ClusterDir string
}

// Server is the spad request handler. Create with New, serve with any
// http.Server, and Close on the way out (after the http.Server has stopped
// accepting) to drain the coalescer.
type Server struct {
	spa       *core.SPA
	mux       *http.ServeMux
	co        *coalescer
	met       metrics
	maxBody   int64
	noBinary  bool
	start     time.Time
	accessLog bool
	logf      func(format string, args ...any)
	// draining flips once shutdown begins (BeginDrain/Close); /readyz
	// answers 503 from then on so load balancers stop routing while
	// in-flight requests finish.
	draining atomic.Bool

	// Streamed-ingest session registry (stream.go).
	streamWindow    int
	streamDrainWait time.Duration
	streamMu        sync.Mutex
	streams         map[*streamSession]struct{}
	streamsDraining bool

	// Replication (repl.go leader side, follower.go follower side).
	// followerOf is the normalized leader host:port, empty on a leader;
	// follower is the in-process apply loop when followerOf is set.
	followerOf    string
	follower      *follower
	replMu        sync.Mutex
	repls         map[*replSession]struct{}
	replsDraining bool

	// Cluster mode (cluster.go): slot ownership, topology, write fence.
	// nil on standalone and follower servers.
	cluster *cluster
}

// New wires the handler around an opened SPA. The caller keeps ownership of
// the SPA: Close drains the serving layer but does not close the core.
func New(spa *core.SPA, opts Options) *Server {
	s := &Server{spa: spa, mux: http.NewServeMux(), start: time.Now()}
	s.maxBody = opts.MaxBodyBytes
	s.noBinary = opts.DisableBinary
	if s.maxBody <= 0 {
		s.maxBody = 8 << 20
	}
	s.streamWindow = opts.StreamWindow
	if s.streamWindow <= 0 {
		s.streamWindow = defaultStreamWindow
	}
	if s.streamWindow > wire.MaxStreamCredit {
		// The hello cannot advertise more — clients reject larger grants
		// at the handshake, which would kill every stream before its
		// first frame.
		s.streamWindow = wire.MaxStreamCredit
	}
	s.streamDrainWait = opts.StreamDrainWait
	if s.streamDrainWait <= 0 {
		s.streamDrainWait = defaultStreamDrainWait
	}
	s.accessLog = opts.AccessLog
	s.logf = opts.Logf
	if s.logf == nil {
		s.logf = log.Printf
	}
	s.co = newCoalescer(spaPreparer{spa: spa}, &s.met, opts.QueueDepth, opts.MaxBatch, opts.MaxDelay, opts.SlowWave, s.logf)
	// The store reports WAL-sync and compaction durations straight into the
	// stage histograms (and tagged syncs into their wave's trace).
	spa.SetStoreObserver(storeObserver{m: &s.met})
	s.mux.HandleFunc("POST /v1/users", s.handle("register", s.handleRegister))
	s.mux.HandleFunc("POST /v1/ingest", s.handle("ingest", s.handleIngest))
	// The stream upgrade is deliberately unwrapped: its hijacked connection
	// outlives the "request", so a latency sample would be meaningless.
	s.mux.HandleFunc("GET "+wire.StreamPath, s.handleIngestStream)
	s.mux.HandleFunc("GET /v1/users/{id}/question", s.handle("question", s.handleQuestion))
	s.mux.HandleFunc("POST /v1/users/{id}/answer", s.handle("answer", s.handleAnswer))
	s.mux.HandleFunc("POST /v1/users/{id}/reward", s.handle("reward", s.handleReinforce(true)))
	s.mux.HandleFunc("POST /v1/users/{id}/punish", s.handle("punish", s.handleReinforce(false)))
	s.mux.HandleFunc("GET /v1/users/{id}/propensity", s.handle("propensity", s.handlePropensity))
	s.mux.HandleFunc("GET /v1/users/{id}/sensibilities", s.handle("sensibilities", s.handleSensibilities))
	s.mux.HandleFunc("GET /v1/users/{id}/advice", s.handle("advice", s.handleAdvice))
	s.mux.HandleFunc("GET /v1/users/{id}/recommendations", s.handle("recommend", s.handleRecommend))
	s.mux.HandleFunc("GET /v1/select-top", s.handle("select_top", s.handleSelectTop))
	s.mux.HandleFunc("GET /healthz", s.handle("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /readyz", s.handle("readyz", s.handleReady))
	s.mux.HandleFunc("GET /metrics", s.handle("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /debug/waves", s.handle("debug_waves", s.handleWaves))
	// The replication upgrade is unwrapped like the ingest stream: the
	// hijacked connection outlives the "request".
	s.mux.HandleFunc("GET "+wire.ReplPath, s.handleReplStream)
	s.mux.HandleFunc("GET /v1/replication/status", s.handle("replication_status", s.handleReplStatus))
	s.mux.HandleFunc("GET "+wire.TopologyPath, s.handle("topology", s.handleTopology))
	s.mux.HandleFunc("POST "+wire.HandoffPath, s.handle("handoff", s.handleHandoff))
	s.met.replSnapshotBytes.Store(opts.FollowerBootstrapBytes)
	if opts.ClusterNodeID != "" {
		s.cluster = newCluster(s, opts.ClusterNodeID, opts.ClusterAddr, opts.ClusterPeers, opts.ClusterDir)
		go s.cluster.gossipLoop()
	}
	if opts.FollowerOf != "" {
		leader, err := leaderHostPort(opts.FollowerOf)
		if err != nil {
			// Surface the misconfiguration loudly but keep the read path up:
			// the follower parks stalled and never streams.
			s.logf("spad: %v", err)
			leader = opts.FollowerOf
		}
		s.followerOf = leader
		s.follower = newFollower(s, leader, opts.ReplWindow)
		go s.follower.run()
	}
	return s
}

// IsFollower reports whether this server replicates from a leader; Leader
// names it (host:port) when so.
func (s *Server) IsFollower() bool { return s.followerOf != "" }
func (s *Server) Leader() string   { return s.followerOf }

// rejectFollowerWrite answers a write on a follower: 421 Misdirected
// Request plus an X-SPA-Leader header naming where writes belong. Returns
// true when the request was rejected.
func (s *Server) rejectFollowerWrite(w http.ResponseWriter) bool {
	if s.followerOf == "" {
		return false
	}
	w.Header().Set("X-SPA-Leader", s.followerOf)
	s.writeError(w, http.StatusMisdirectedRequest,
		fmt.Errorf("this instance is a read-only follower; write to the leader at %s", s.followerOf))
	return true
}

// handle wraps one endpoint with per-endpoint latency observation and the
// optional access log. The handler name is fixed at registration — never
// derived from the request path — so the histogram label set stays bounded
// whatever clients send.
func (s *Server) handle(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &respRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		d := time.Since(start)
		if hist := s.met.obs().endpoints[name]; hist != nil {
			hist.Observe(d)
		}
		if s.accessLog {
			s.logf("spad: %s %s %d %dB %s", r.Method, r.URL.Path, rec.status, rec.bytes, d)
		}
	}
}

// respRecorder captures status and byte count for the access log while
// delegating everything else. Unwrap keeps http.ResponseController
// features (flush, deadlines) reachable through the wrapper.
type respRecorder struct {
	http.ResponseWriter
	status      int
	bytes       int64
	wroteHeader bool
}

func (r *respRecorder) WriteHeader(status int) {
	if !r.wroteHeader {
		r.status = status
		r.wroteHeader = true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *respRecorder) Write(p []byte) (int, error) {
	r.wroteHeader = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *respRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// BeginDrain marks the server not-ready: /readyz starts answering 503
// "draining" while /healthz keeps reporting live. Call it before the HTTP
// listener's graceful Shutdown so load balancers drain traffic first.
// Close calls it too, for callers that skip the explicit step.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Close stops ingest admission and drains every request already queued in
// the coalescer. Call after the http.Server has finished Shutdown, so no
// handler is still about to enqueue. Stream sessions drain first — their
// readers are coalescer producers, so in-flight stream frames are accepted,
// committed and answered before the coalescer's final sweep; then the
// coalescer drains everything queued. Safe to call more than once.
func (s *Server) Close() {
	s.BeginDrain()
	if s.follower != nil {
		s.follower.stopWait()
	}
	if s.cluster != nil {
		s.cluster.stopWait()
	}
	s.drainStreams()
	s.drainRepls()
	s.co.close()
}

// ---- plumbing ----

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.met.requestErrors.Add(1)
	s.writeJSON(w, status, wire.Error{Message: err.Error()})
}

// domainStatus maps facade errors onto HTTP statuses — the single mapping
// both transports use (writeDomainError for HTTP, the stream responder for
// error frames), so a given failure answers with the same status whatever
// the request spoke.
func domainStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrBadStream):
		// A malformed event stream is the submitter's fault.
		return http.StatusBadRequest
	case errors.Is(err, core.ErrNoProfile):
		return http.StatusNotFound
	case errors.Is(err, core.ErrAlreadyRegistered):
		return http.StatusConflict
	case errors.Is(err, core.ErrNoModel):
		return http.StatusConflict
	case errors.Is(err, core.ErrNoInteractions):
		// Nothing ingested yet — the caller can retry after ingest.
		return http.StatusConflict
	case errors.Is(err, store.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeDomainError maps facade errors onto HTTP statuses.
func (s *Server) writeDomainError(w http.ResponseWriter, err error) {
	s.writeError(w, domainStatus(err), err)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	// The coalescer's queue bounds request count; this bounds bytes, so a
	// single oversized body cannot bypass admission control.
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	// One value per body: a second JSON value after the first
	// ({"user_id":1}{"user_id":2}) would be decoded-and-dropped silently,
	// acknowledging data the server never looked at.
	if _, err := dec.Token(); err != io.EOF {
		s.writeError(w, http.StatusBadRequest, errors.New("decoding request: trailing data after JSON value"))
		return false
	}
	return true
}

// readBody slurps a capped raw body (the binary path's counterpart of
// decode): same byte bound, same 413 mapping.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return nil, false
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return nil, false
	}
	return raw, true
}

func (s *Server) userID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || id == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad user id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

// ---- handlers ----

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	var req wire.RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.UserID == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("zero user id"))
		return
	}
	release, ok := s.admitClusterWrite(w, req.UserID)
	if !ok {
		return
	}
	defer release()
	if err := s.spa.Register(req.UserID, req.Objective); err != nil {
		// Duplicate → 409; anything else (store write failure) is ours.
		s.writeDomainError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, struct{}{})
}

// handleIngest dispatches on Content-Type: application/x-spa-binary
// selects the length-prefixed framing of internal/wire, anything else is
// the JSON baseline. Both paths share the body cap, the coalescer, and the
// error vocabulary (errors always answer as JSON, whatever the request
// spoke — status handling stays one code path for every client).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	decodeStart := time.Now()
	binaryReq := wire.IsBinaryContentType(r.Header.Get("Content-Type"))
	var events []lifelog.Event
	if binaryReq {
		if s.noBinary {
			s.writeError(w, http.StatusUnsupportedMediaType,
				errors.New("binary ingest framing disabled; use application/json"))
			return
		}
		raw, ok := s.readBody(w, r)
		if !ok {
			return
		}
		wevents, err := wire.DecodeIngestRequest(raw)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		events = wire.ToEvents(wevents)
		s.met.ingestBinary.Add(1)
	} else {
		var req wire.IngestRequest
		if !s.decode(w, r, &req) {
			return
		}
		events = wire.ToEvents(req.Events)
	}
	// The decode stage covers body read + unmarshal + domain conversion for
	// both framings — the successful ones; a 400/413 never reaches here.
	s.met.obs().stage("decode", time.Since(decodeStart))
	s.met.ingestRequests.Add(1)
	// Cluster ownership covers every user in the batch, and the guard is
	// held through the commit (submit waits for it): an acked write to an
	// owned slot is durably logged before any handoff fence barrier passes.
	release, ok := s.admitClusterWrite(w, ingestUserIDs(events)...)
	if !ok {
		return
	}
	defer release()

	out, merged, err := s.co.submit(r.Context(), events)
	switch {
	case errors.Is(err, errQueueFull):
		s.met.ingestRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "5")
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		// The client hung up while its accepted job was waiting on the
		// commit. The job still commits; nobody reads this answer.
		s.writeError(w, http.StatusRequestTimeout, err)
		return
	}
	if out.Err != nil {
		// Malformed event stream → the submitter's 400; store failures are
		// ours (503 when closing, 500 otherwise). All via domainStatus.
		s.writeDomainError(w, out.Err)
		return
	}
	resp := wire.IngestResponse{
		Processed:      out.Processed,
		SkippedUnknown: out.SkippedUnknown,
		CoalescedWith:  merged,
	}
	if binaryReq {
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.WriteHeader(http.StatusOK)
		w.Write(wire.EncodeIngestResponse(resp))
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleQuestion(w http.ResponseWriter, r *http.Request) {
	id, ok := s.userID(w, r)
	if !ok {
		return
	}
	if s.bounceMisowned(w, id) {
		return
	}
	item, err := s.spa.NextQuestion(id)
	if err != nil {
		s.writeDomainError(w, err)
		return
	}
	q := wire.Question{ID: item.ID, Branch: item.Branch.String(), Prompt: item.Prompt}
	for _, o := range item.Options {
		q.Options = append(q.Options, o.Text)
	}
	s.writeJSON(w, http.StatusOK, q)
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	id, ok := s.userID(w, r)
	if !ok {
		return
	}
	release, ok := s.admitClusterWrite(w, id)
	if !ok {
		return
	}
	defer release()
	var req wire.AnswerRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.spa.SubmitAnswer(id, emotion.Answer{ItemID: req.ItemID, Option: req.Option}); err != nil {
		// A bad item/option is the submitter's fault; unknown users and
		// store failures go through the domain mapping (404/503/500).
		if errors.Is(err, emotion.ErrBadAnswer) {
			s.writeError(w, http.StatusBadRequest, err)
		} else {
			s.writeDomainError(w, err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleReinforce(reward bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.rejectFollowerWrite(w) {
			return
		}
		id, ok := s.userID(w, r)
		if !ok {
			return
		}
		release, ok := s.admitClusterWrite(w, id)
		if !ok {
			return
		}
		defer release()
		var req wire.AttributesRequest
		if !s.decode(w, r, &req) {
			return
		}
		attrs, err := req.ToAttributes()
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		if reward {
			err = s.spa.Reward(id, attrs)
		} else {
			err = s.spa.Punish(id, attrs)
		}
		if err != nil {
			s.writeDomainError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, struct{}{})
	}
}

func (s *Server) handlePropensity(w http.ResponseWriter, r *http.Request) {
	id, ok := s.userID(w, r)
	if !ok {
		return
	}
	if s.bounceMisowned(w, id) {
		return
	}
	p, err := s.spa.Propensity(id)
	if err != nil {
		s.writeDomainError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, wire.PropensityResponse{Propensity: p})
}

func (s *Server) handleSensibilities(w http.ResponseWriter, r *http.Request) {
	id, ok := s.userID(w, r)
	if !ok {
		return
	}
	if s.bounceMisowned(w, id) {
		return
	}
	sens, err := s.spa.Sensibilities(id)
	if err != nil {
		s.writeDomainError(w, err)
		return
	}
	resp := wire.SensibilitiesResponse{Sensibilities: make(map[string]float64, len(sens))}
	for i, v := range sens {
		resp.Sensibilities[emotion.Attribute(i).String()] = v
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request) {
	id, ok := s.userID(w, r)
	if !ok {
		return
	}
	if s.bounceMisowned(w, id) {
		return
	}
	domain := r.URL.Query().Get("domain")
	if domain == "" {
		domain = "training"
	}
	adv, err := s.spa.Advise(id, domain)
	if err != nil {
		s.writeDomainError(w, err)
		return
	}
	resp := wire.AdviceResponse{Domain: adv.Domain, Excitation: make(map[string]float64, emotion.NumAttributes)}
	for i, v := range adv.Excitation {
		resp.Excitation[emotion.Attribute(i).String()] = v
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	id, ok := s.userID(w, r)
	if !ok {
		return
	}
	if s.bounceMisowned(w, id) {
		return
	}
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", q))
			return
		}
		n = v
	}
	recs, err := s.spa.RecommendActions(id, n)
	if err != nil {
		// Everything routes through the domain mapping: cold starts
		// (ErrNoInteractions) answer 409, but a store failure must answer
		// 503/500 here like on every other endpoint — the old blanket 409
		// told clients "retry after ingest" about a server-side fault.
		s.writeDomainError(w, err)
		return
	}
	resp := wire.RecommendResponse{Recommendations: make([]wire.Recommendation, len(recs))}
	for i, rec := range recs {
		resp.Recommendations[i] = wire.Recommendation{Action: rec.Action, Score: rec.Score}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSelectTop ranks this node's resident users. In cluster mode that
// is deliberately node-local: a global top-k would need a scatter-gather
// over every owner, and the endpoint's contract ("rank the users this
// instance models") already matches the partitioned reality.
func (s *Server) handleSelectTop(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k < 1 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", r.URL.Query().Get("k")))
		return
	}
	ids, err := s.spa.SelectTop(k)
	if err != nil {
		// A partial ranking is an answer, not a failure: some profiles
		// could not be scored (core.ErrPartialSelection) but the ranking
		// over the rest is valid, so answer 200 with the skip count
		// instead of failing the whole request.
		var partial *core.PartialSelectionError
		if !errors.As(err, &partial) {
			s.writeDomainError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, wire.SelectTopResponse{UserIDs: ids, Skipped: partial.Skipped})
		return
	}
	s.writeJSON(w, http.StatusOK, wire.SelectTopResponse{UserIDs: ids})
}

// handleHealth is pure liveness: 200 "ok" for as long as the process can
// answer at all, drain or no drain — restart-deciders watch this one.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, wire.Health{Status: "ok", Users: s.spa.Users()})
}

// handleReady is readiness: 200 "ok" until drain begins, 503 "draining"
// after — routing-deciders watch this one, and flip before the listener
// dies rather than when it dies.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, wire.Health{Status: "draining", Users: s.spa.Users()})
		return
	}
	s.writeJSON(w, http.StatusOK, wire.Health{Status: "ok", Users: s.spa.Users()})
}

// handleWaves serves the last n coalescer wave traces, newest first
// (?n=, default 64, capped at the ring size).
func (s *Server) handleWaves(w http.ResponseWriter, r *http.Request) {
	n := 64
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", q))
			return
		}
		n = v
	}
	if n > waveRingSize {
		n = waveRingSize
	}
	traces := s.met.obs().waves.Last(n)
	resp := wire.WavesResponse{Waves: make([]wire.WaveTrace, len(traces))}
	for i, t := range traces {
		resp.Waves[i] = waveDTO(t)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// snapshotMetrics collects the full metrics snapshot once; both the JSON
// and the Prometheus renderers serve from the same value, so the two
// formats cannot disagree about a scrape.
func (s *Server) snapshotMetrics() wire.Metrics {
	m := wire.Metrics{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Users:             s.spa.Users(),
		Requests:          s.met.requests.Load(),
		RequestErrors:     s.met.requestErrors.Load(),
		IngestRequests:    s.met.ingestRequests.Load(),
		IngestBinary:      s.met.ingestBinary.Load(),
		IngestEvents:      s.met.ingestEvents.Load(),
		IngestRejected:    s.met.ingestRejected.Load(),
		IngestCommits:     s.met.ingestCommits.Load(),
		CoalescedRequests: s.met.coalescedRequests.Load(),
		MaxCoalesced:      int(s.met.maxCoalesced.Load()),
		PipelineDepth:     int(s.met.pipelineDepth.Load()),
		PipelineOverlap:   s.met.pipelineOverlap.Load(),
		StreamConns:       int(s.met.streamConns.Load()),
		StreamFrames:      s.met.streamFrames.Load(),
		LastWaveID:        s.met.waveSeq.Load(),
		QueueDepth:        s.co.depth(),
		QueueCapacity:     s.co.capacity(),
	}
	rs := s.spa.ReadStats()
	m.SnapshotEpoch = rs.SnapshotEpoch
	m.ReadCacheHits = rs.ReadCacheHits
	m.ReadCacheMisses = rs.ReadCacheMisses
	if st, ok := s.spa.StoreStats(); ok {
		m.Durable = true
		m.StoreSegments = st.Segments
		m.StoreSegmentBytes = st.SegmentBytes
		m.StoreMemtableKeys = st.MemtableKeys
		m.StoreCompactions = st.Compactions
		m.StoreCompactError = st.CompactionErr
		m.WALSealedFiles = st.WALSealedFiles
		m.WALSealedBytes = st.WALSealedBytes
		m.WALDiscardedBytes = st.WALDiscardedBytes
		// Replication is meaningful only on a durable core; the status and
		// the metrics snapshot share one collector so they cannot disagree.
		rst := s.replicationStatus()
		m.ReplRole = rst.Role
		m.ReplAppliedLSN = rst.AppliedLSN
		m.ReplLagWaves = rst.LagWaves
		m.ReplFollowers = len(rst.Followers)
		m.ReplSnapshotBytes = rst.SnapshotBytes
	}
	// The cluster series render on every node — zeros outside cluster mode
	// — so dashboards and the -check-metrics stable map never see the key
	// set change with deployment shape.
	if s.cluster != nil {
		m.ClusterEpoch = s.cluster.epochNow()
		m.ClusterSlotsOwned = s.cluster.slotsOwned()
	}
	m.ClusterBounces = s.met.clusterBounces.Load()
	m.SlotMoves = s.met.slotMoves.Load()
	ob := s.met.obs()
	m.StageBoundsNanos = obs.BoundsNanos()
	m.Stages = make(map[string]wire.Histogram, len(stageNames))
	for _, n := range stageNames {
		m.Stages[n] = histDTO(ob.stages[n])
	}
	m.Endpoints = make(map[string]wire.Histogram, len(endpointNames))
	for _, n := range endpointNames {
		m.Endpoints[n] = histDTO(ob.endpoints[n])
	}
	return m
}

// wantsProm decides the /metrics representation. JSON stays the default —
// spabench, the smoke scripts and curl without headers predate the text
// exposition — so Prometheus must be asked for, by ?format=prometheus or
// an Accept naming text/plain or OpenMetrics. (A scraper's typical Accept
// lists both; curl's default */* keeps JSON.)
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.snapshotMetrics()
	if wantsProm(r) {
		w.Header().Set("Content-Type", obs.PromContentType)
		w.WriteHeader(http.StatusOK)
		writePromMetrics(w, m)
		return
	}
	s.writeJSON(w, http.StatusOK, m)
}
