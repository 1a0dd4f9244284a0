// Package wire defines the types of the SPA serving API — the single
// vocabulary shared by the spad daemon (internal/server) and the Go client
// (internal/spaclient), so the two cannot drift apart. The baseline
// protocol is plain HTTP/JSON: every message is one object, timestamps
// travel as Unix nanoseconds, and enumerations travel as the lowercase
// names the paper uses. The ingest hot path additionally negotiates a
// length-prefixed binary framing of the same DTOs (binary.go) via
// Content-Type, with JSON as the universal fallback.
package wire

import (
	"fmt"
	"time"

	"repro/internal/emotion"
	"repro/internal/lifelog"
)

// Event is the wire form of one LifeLog event.
type Event struct {
	UserID uint64 `json:"user_id"`
	// TimeUnixNano is the event instant as Unix nanoseconds; per-user event
	// streams must be non-decreasing, as everywhere in the LifeLog pipeline.
	TimeUnixNano int64   `json:"time_unix_nano"`
	Type         uint8   `json:"type"`
	Action       uint32  `json:"action"`
	Value        float32 `json:"value,omitempty"`
	Campaign     uint32  `json:"campaign,omitempty"`
}

// FromEvent converts a LifeLog event to its wire form.
func FromEvent(e lifelog.Event) Event {
	return Event{
		UserID:       e.UserID,
		TimeUnixNano: e.Time.UnixNano(),
		Type:         uint8(e.Type),
		Action:       e.Action,
		Value:        e.Value,
		Campaign:     e.Campaign,
	}
}

// Lifelog converts the wire event back to the domain type.
func (e Event) Lifelog() lifelog.Event {
	return lifelog.Event{
		UserID:   e.UserID,
		Time:     time.Unix(0, e.TimeUnixNano),
		Type:     lifelog.EventType(e.Type),
		Action:   e.Action,
		Value:    e.Value,
		Campaign: e.Campaign,
	}
}

// ToEvents converts a wire batch to domain events.
func ToEvents(in []Event) []lifelog.Event {
	out := make([]lifelog.Event, len(in))
	for i, e := range in {
		out[i] = e.Lifelog()
	}
	return out
}

// FromEvents converts domain events to a wire batch.
func FromEvents(in []lifelog.Event) []Event {
	out := make([]Event, len(in))
	for i, e := range in {
		out[i] = FromEvent(e)
	}
	return out
}

// RegisterRequest creates a Smart User Model.
type RegisterRequest struct {
	UserID    uint64    `json:"user_id"`
	Objective []float64 `json:"objective,omitempty"`
}

// IngestRequest carries one submitter's event batch.
type IngestRequest struct {
	Events []Event `json:"events"`
}

// IngestResponse reports the batch's outcome. CoalescedWith is the number
// of requests (including this one) that shared the group commit — 1 when
// the request committed alone.
type IngestResponse struct {
	Processed      int `json:"processed"`
	SkippedUnknown int `json:"skipped_unknown"`
	CoalescedWith  int `json:"coalesced_with"`
}

// Question is one Gradual EIT item.
type Question struct {
	ID      int      `json:"id"`
	Branch  string   `json:"branch"`
	Prompt  string   `json:"prompt"`
	Options []string `json:"options"`
}

// AnswerRequest submits a Gradual EIT answer.
type AnswerRequest struct {
	ItemID int `json:"item_id"`
	Option int `json:"option"`
}

// AttributesRequest names emotional attributes for reward/punish, by their
// lowercase paper names ("lively", "frightened", ...).
type AttributesRequest struct {
	Attributes []string `json:"attributes"`
}

// ToAttributes resolves the names.
func (r AttributesRequest) ToAttributes() ([]emotion.Attribute, error) {
	if len(r.Attributes) == 0 {
		return nil, fmt.Errorf("wire: no attributes named")
	}
	out := make([]emotion.Attribute, len(r.Attributes))
	for i, n := range r.Attributes {
		a, err := emotion.ParseAttribute(n)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// AttributeNames is the inverse of AttributesRequest.ToAttributes.
func AttributeNames(attrs []emotion.Attribute) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = a.String()
	}
	return out
}

// PropensityResponse is the calibrated response probability.
type PropensityResponse struct {
	Propensity float64 `json:"propensity"`
}

// SensibilitiesResponse maps attribute name → absolute sensibility weight.
type SensibilitiesResponse struct {
	Sensibilities map[string]float64 `json:"sensibilities"`
}

// SelectTopResponse ranks users by propensity, best first. Skipped counts
// registered profiles the model could not score (the ranking is still
// valid without them); zero in the common case.
type SelectTopResponse struct {
	UserIDs []uint64 `json:"user_ids"`
	Skipped int      `json:"skipped,omitempty"`
}

// AdviceResponse is the SUM advice-stage excitation/inhibition vector,
// keyed by attribute name.
type AdviceResponse struct {
	Domain     string             `json:"domain"`
	Excitation map[string]float64 `json:"excitation"`
}

// Recommendation is one ranked action.
type Recommendation struct {
	Action uint32  `json:"action"`
	Score  float64 `json:"score"`
}

// RecommendResponse is the individualized action ranking, best first.
type RecommendResponse struct {
	Recommendations []Recommendation `json:"recommendations"`
}

// Error is the uniform error body; Message is safe to show to operators.
type Error struct {
	Message string `json:"error"`
}

// Health is the liveness body. /healthz answers it with Status "ok" while
// the process lives; /readyz answers it with Status "ok" (200) until drain
// begins, then "draining" (503) so load balancers stop routing before the
// listener dies.
type Health struct {
	Status string `json:"status"`
	Users  int    `json:"users"`
}

// ReplFollowerStatus is one live replication session seen from the
// leader: the follower's cumulative acknowledged position and how far it
// trails the leader's committed head.
type ReplFollowerStatus struct {
	AckedLSN uint64 `json:"acked_lsn"`
	LagWaves uint64 `json:"lag_waves"`
	// LagBytes is the wave payload in flight to this follower — sent but
	// not yet acknowledged.
	LagBytes int64 `json:"lag_bytes"`
}

// ReplicationStatus is the GET /v1/replication/status body. Role is
// "leader" (a durable instance, whether or not anyone subscribed),
// "follower" (Options.FollowerOf), or "none" (in-memory: no log to ship).
// Fields beyond the role/position pair are populated per role.
type ReplicationStatus struct {
	Role       string `json:"role"`
	AppliedLSN uint64 `json:"applied_lsn"`
	// LogFloorLSN is the oldest retained log position; followers resuming
	// below it bootstrap from a snapshot.
	LogFloorLSN uint64 `json:"log_floor_lsn,omitempty"`
	// LagWaves is the worst follower lag (leader) or this follower's own
	// lag behind LeaderLSN (follower). LagBytes is the matching in-flight
	// wave payload, known only on the leader.
	LagWaves uint64 `json:"lag_waves"`
	LagBytes int64  `json:"lag_bytes,omitempty"`
	// SnapshotBytes counts snapshot bytes shipped to bootstrapping
	// followers (leader) or restored at bootstrap (follower).
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`

	// Follower-only fields.
	Leader string `json:"leader,omitempty"`
	// State is "connecting", "streaming", or "stalled" (the follower fell
	// behind the leader's retained history and needs a restart to
	// re-bootstrap; it keeps serving stale reads meanwhile).
	State                 string `json:"state,omitempty"`
	LeaderLSN             uint64 `json:"leader_lsn,omitempty"`
	LastHeartbeatUnixNano int64  `json:"last_heartbeat_unix_nano,omitempty"`

	// Leader-only: one entry per live replication session.
	Followers []ReplFollowerStatus `json:"followers,omitempty"`

	// Cluster-only: this node's id and the topology epoch it is serving
	// under, so an operator can tell from one status body whether the
	// cluster has converged on a map.
	NodeID        string `json:"node_id,omitempty"`
	TopologyEpoch uint64 `json:"topology_epoch,omitempty"`
}

// Histogram is the wire form of one obs latency histogram: per-bucket
// (non-cumulative) observation counts over the shared log-spaced bounds
// published in Metrics.StageBoundsNanos, with trailing zero buckets
// trimmed. SumNanos is the total observed time.
type Histogram struct {
	Count    uint64   `json:"count"`
	SumNanos uint64   `json:"sum_nanos"`
	Counts   []uint64 `json:"counts,omitempty"`
}

// WaveTrace is the wire form of one coalescer wave's stage timeline
// (GET /debug/waves). All stage fields are nanoseconds; QueueWait is the
// longest pre-gather queue wait among the wave's requests, CommitWait the
// pipelined handoff stall, WALSync the slice of Commit spent in the
// store's fsync. Total is gather→commit (queue wait overlaps the previous
// wave and is excluded).
type WaveTrace struct {
	ID              uint64 `json:"id"`
	StartUnixNano   int64  `json:"start_unix_nano"`
	Requests        int    `json:"requests"`
	Events          int    `json:"events"`
	Shards          int    `json:"shards"`
	QueueWaitNanos  int64  `json:"queue_wait_nanos"`
	GatherNanos     int64  `json:"gather_nanos"`
	PrepareNanos    int64  `json:"prepare_nanos"`
	CommitWaitNanos int64  `json:"commit_wait_nanos"`
	CommitNanos     int64  `json:"commit_nanos"`
	WALSyncNanos    int64  `json:"wal_sync_nanos"`
	TotalNanos      int64  `json:"total_nanos"`
	Err             bool   `json:"err,omitempty"`
}

// WavesResponse is the GET /debug/waves body, newest wave first.
type WavesResponse struct {
	Waves []WaveTrace `json:"waves"`
}

// Metrics is the /metrics snapshot: serving-layer counters plus the
// embedded store's internals.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Users         int     `json:"users"`

	// Request counters.
	Requests      uint64 `json:"requests"`
	RequestErrors uint64 `json:"request_errors"`

	// Ingest path: the coalescer's accounting. IngestRequests counts
	// arrivals; IngestBinary the subset that negotiated the binary
	// framing; IngestEvents counts events actually handed to the core in
	// group commits (rejected requests are excluded).
	IngestRequests uint64 `json:"ingest_requests"`
	IngestBinary   uint64 `json:"ingest_binary"`
	IngestEvents   uint64 `json:"ingest_events"`
	IngestRejected uint64 `json:"ingest_rejected"` // 503: pending queue full
	IngestCommits  uint64 `json:"ingest_commits"`  // group commits dispatched
	// CoalescedRequests sums requests over commits; CoalescedRequests /
	// IngestCommits is the mean group size, MaxCoalesced the largest.
	CoalescedRequests uint64 `json:"coalesced_requests"`
	MaxCoalesced      int    `json:"max_coalesced"`
	QueueDepth        int    `json:"queue_depth"`
	QueueCapacity     int    `json:"queue_capacity"`
	// Dispatcher instrumentation: PipelineDepth gauges waves currently in
	// flight (≤ 2); PipelineOverlap counts waves whose prepare finished
	// while an earlier wave was still in flight — measured concurrency, not
	// an assumption.
	PipelineDepth   int    `json:"pipeline_depth"`
	PipelineOverlap uint64 `json:"pipeline_overlap"`
	// Streamed ingest: StreamConns gauges live stream sessions,
	// StreamFrames counts ingest request frames received over streams (a
	// subset of IngestRequests).
	StreamConns  int    `json:"stream_conns"`
	StreamFrames uint64 `json:"stream_frames"`

	// Read path (core epoch snapshots, DESIGN.md §8). SnapshotEpoch is the
	// current read-snapshot generation (1 after open, +1 per shard
	// publish; process-local). ReadCacheHits/Misses count per-shard
	// recommend-cache outcomes. KNNRebuilds is retired and always 0: the
	// recommender ranks straight from the snapshot rows and has no model to
	// rebuild. The field and its series stay so existing scrapers keep
	// parsing.
	SnapshotEpoch   uint64 `json:"snapshot_epoch"`
	ReadCacheHits   uint64 `json:"read_cache_hits"`
	ReadCacheMisses uint64 `json:"read_cache_misses"`
	KNNRebuilds     uint64 `json:"knn_rebuilds"`

	// Store internals; zero-valued with Durable=false.
	Durable           bool   `json:"durable"`
	StoreSegments     int    `json:"store_segments"`
	StoreSegmentBytes int64  `json:"store_segment_bytes"`
	StoreMemtableKeys int    `json:"store_memtable_keys"`
	StoreCompactions  uint64 `json:"store_compactions"`
	StoreCompactError string `json:"store_compact_error,omitempty"`
	// Retained log history and replay health (zero with Durable=false).
	// WALDiscardedBytes counts the corrupt tail bytes replay dropped at
	// open — nonzero after a torn write.
	WALSealedFiles    int   `json:"wal_sealed_files"`
	WALSealedBytes    int64 `json:"wal_sealed_bytes"`
	WALDiscardedBytes int64 `json:"wal_discarded_bytes"`

	// Replication (DESIGN.md §9). ReplRole is "leader" (durable,
	// shippable log), "follower" (Options.FollowerOf), or empty on an
	// in-memory instance. ReplAppliedLSN mirrors the store's committed
	// position; ReplLagWaves is the worst follower lag seen from a leader,
	// or this follower's own lag behind the last reported leader position.
	// ReplSnapshotBytes counts snapshot bytes shipped (leader) or restored
	// at bootstrap (follower).
	ReplRole          string `json:"repl_role,omitempty"`
	ReplAppliedLSN    uint64 `json:"repl_applied_lsn"`
	ReplLagWaves      uint64 `json:"repl_lag_waves"`
	ReplFollowers     int    `json:"repl_followers"`
	ReplSnapshotBytes int64  `json:"repl_snapshot_bytes"`

	// Cluster mode (DESIGN.md §10). All four stay zero on a non-cluster
	// node, so the series are always present. ClusterEpoch is the current
	// topology epoch; ClusterSlotsOwned the slots this node owns;
	// ClusterBounces counts requests refused with 421 because another node
	// owns the user's slot; SlotMoves counts slots this node has acquired
	// via handoff.
	ClusterEpoch      uint64 `json:"cluster_epoch"`
	ClusterSlotsOwned int    `json:"cluster_slots_owned"`
	ClusterBounces    uint64 `json:"cluster_bounces"`
	SlotMoves         uint64 `json:"slot_moves"`

	// Stage-latency histograms (internal/obs). StageBoundsNanos is the
	// bucket upper-bound vector shared by every histogram below. Stages is
	// keyed by pipeline stage — decode, queue, gather, prepare, commit,
	// wal_sync, compaction; Endpoints by handler name (register, ingest,
	// recommend, ...). LastWaveID is the newest wave ID the coalescer
	// minted (wave IDs are 1-based; 0 means no wave yet).
	StageBoundsNanos []int64              `json:"stage_bounds_nanos,omitempty"`
	Stages           map[string]Histogram `json:"stages,omitempty"`
	Endpoints        map[string]Histogram `json:"endpoints,omitempty"`
	LastWaveID       uint64               `json:"last_wave_id,omitempty"`
}
