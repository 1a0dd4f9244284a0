// Package repro is a from-scratch Go reproduction of "Embedding Emotional
// Context in Recommender Systems" (González, de la Rosa, Montaner, Delfin;
// ICDE 2007 workshops): the Smart Prediction Assistant (SPA) platform that
// acquires users' emotional context through a Gradual Emotional Intelligence
// Test, maintains Smart User Models with reward/punish reinforcement, ranks
// users by SVM-calibrated propensity, and generates individualized emotional
// sales messages.
//
// The in-process surface lives in internal/core (the SPA facade): a
// sharded, write-through profile core over an embedded log-structured
// store with batched WAL commits, per-segment bloom filters and background
// compaction. The network surface is cmd/spad — an HTTP/JSON daemon over
// internal/server with cross-request ingest coalescing, backpressure and
// graceful drain — spoken to through the internal/spaclient Go client.
// The ingest hot path additionally negotiates a binary framing
// (Content-Type: application/x-spa-binary) and a persistent streamed
// transport (an HTTP upgrade on /v1/ingest/stream) with credit-based flow
// control and drain-safe shutdown. A daemon can follow another
// (spad -follow) over WAL-shipping replication, or join a cluster
// (spad -node-id) that partitions users across nodes by keyspace slot,
// with topology-aware routing in spaclient and live slot handoff between
// nodes by WAL replay.
// See DESIGN.md for the architecture.
//
// Observability is built in (internal/obs): per-stage and per-endpoint
// latency histograms and wave traces (GET /debug/waves), /metrics in
// JSON or Prometheus text exposition via content negotiation, a
// liveness/readiness split (/healthz vs /readyz, which flips to 503 the
// moment drain begins), and opt-in debugging via spad -access-log,
// -slow-wave, and -debug-addr (net/http/pprof on a separate listener).
//
// The paper's evaluation artifacts are regenerated by cmd/spa,
// cmd/spabench and the benchmarks in bench_test.go; running cmd/spabench
// prints the paper-vs-measured tables (add -json for machine-readable
// records). The serving stack's end-to-end benchmark is bench/
// (go run ./bench); `go test ./cmd/spad -e2e` drives the built daemon
// over real sockets.
package repro
