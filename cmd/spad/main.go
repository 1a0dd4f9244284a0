// Command spad is the SPA daemon: it opens (or creates) a profile store,
// wires the sharded core behind the HTTP/JSON wire API of internal/server,
// and serves until SIGINT/SIGTERM, at which point it stops admission,
// drains the ingest coalescer, and closes the store — no accepted request
// and no acknowledged write is lost to a shutdown.
//
// Usage:
//
//	spad [-addr :8372] [-stream-addr ADDR] [-data DIR] [-shards 16] [-sync=true]
//	     [-queue 256] [-max-batch 64]
//	     [-debug-addr ADDR] [-access-log] [-slow-wave 1s]
//	     [-follow LEADER]
//	     [-cluster] [-node-id ID] [-cluster-addr HOST:PORT] [-peers ID=HOST:PORT,...]
//
// An empty -data serves an in-memory (non-durable) instance, useful for
// load experiments; production points -data at a directory. Every group
// commit is fsynced before it is acknowledged; -sync=false acknowledges
// before the fsync, trading the tail of the log on a crash for latency.
// `spad -data D` is exactly the configuration the benchmark (bench/)
// measures: ingest requests merge into waves whose CPU-bound prepare
// overlaps the previous wave's commit, one WAL sync per wave.
//
// -cluster makes this spad one node of a slot-partitioned cluster
// (internal/server cluster.go): users hash to 256 fixed slots, each slot
// is owned by exactly one node, and requests for users this node does not
// own bounce 421 + X-SPA-Owner so a topology-aware client retries against
// the owner. -node-id names the node (required with -cluster); -peers
// lists the other nodes as comma-separated id=host:port pairs, giving
// every node the same deterministic epoch-1 slot map and a gossip target
// set; -cluster-addr is this node's advertised client-reachable address
// (defaults to -addr with a loopback host filled in). Slots move between
// live nodes via POST /v1/cluster/handoff on the receiving node.
// -cluster and -follow are mutually exclusive: a cluster node is a leader
// for the slots it owns.
//
// -follow LEADER (host:port or URL) starts this spad as a read-only
// replication follower: before the core opens it bootstraps the -data
// directory from the leader (a state snapshot when the local position
// predates the leader's retained WAL history), then applies the leader's
// committed waves live. Every read endpoint serves from replicated state;
// writes answer 421 naming the leader. Requires -data.
//
// Ingest speaks JSON or the length-prefixed binary framing per request,
// and streamed binary ingest is always reachable as an HTTP upgrade on
// /v1/ingest/stream; -stream-addr additionally opens a raw TCP listener
// speaking the same framed protocol without the HTTP handshake. Clients
// fall back to JSON on a 415 and to per-request HTTP on a refused upgrade,
// so they keep working against older daemons that could switch the binary
// framing off. SIGTERM drains streams too: live sessions get a drain frame,
// their in-flight frames commit and are answered, then the coalescer and
// store close. /readyz flips to 503 "draining" the moment the signal
// arrives — before the listener shuts — so load balancers route away
// first; /healthz keeps answering 200 for as long as the process lives.
//
// Observability: /metrics serves the JSON snapshot by default and the
// Prometheus text exposition under ?format=prometheus or an Accept header
// naming text/plain; /debug/waves shows the last coalescer wave traces;
// -slow-wave logs any wave slower than the threshold; -access-log logs
// one line per request. -debug-addr opens a SEPARATE listener serving
// net/http/pprof — profiling stays off the serving mux and off by
// default; bind it to localhost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only on -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/store"
)

// config carries the parsed flags into run.
type config struct {
	addr        string
	streamAddr  string
	debugAddr   string
	data        string
	shards      int
	sync        bool
	queue       int
	maxBatch    int
	accessLog   bool
	slowWave    time.Duration
	follow      string
	cluster     bool
	nodeID      string
	clusterAddr string
	peers       string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8372", "listen address")
	flag.StringVar(&cfg.streamAddr, "stream-addr", "", "raw TCP streamed-ingest listener address (empty: stream via HTTP upgrade only)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "separate net/http/pprof listener address (empty: profiling off; bind to localhost)")
	flag.StringVar(&cfg.data, "data", "", "profile store directory (empty: in-memory, non-durable)")
	flag.IntVar(&cfg.shards, "shards", 16, "profile shard count (rounded up to a power of two)")
	flag.BoolVar(&cfg.sync, "sync", true, "fsync the WAL on every group commit before acknowledging it")
	flag.IntVar(&cfg.queue, "queue", 256, "pending ingest queue depth (full queue answers 503)")
	flag.IntVar(&cfg.maxBatch, "max-batch", 64, "max requests merged into one group commit")
	flag.BoolVar(&cfg.accessLog, "access-log", false, "log one line per completed HTTP request")
	flag.DurationVar(&cfg.slowWave, "slow-wave", time.Second, "log any coalescer wave slower than this gather-to-commit (0: off)")
	flag.StringVar(&cfg.follow, "follow", "", "replicate from this leader (host:port or URL) and serve reads only; requires -data")
	flag.BoolVar(&cfg.cluster, "cluster", false, "serve as one node of a slot-partitioned cluster (requires -node-id)")
	flag.StringVar(&cfg.nodeID, "node-id", "", "this node's cluster id")
	flag.StringVar(&cfg.clusterAddr, "cluster-addr", "", "advertised client-reachable address (default: -addr with a loopback host)")
	flag.StringVar(&cfg.peers, "peers", "", "other cluster nodes as id=host:port, comma-separated")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "spad: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	var peers map[string]string
	clusterAddr := ""
	if cfg.cluster {
		if cfg.nodeID == "" {
			return errors.New("-cluster requires -node-id")
		}
		if cfg.follow != "" {
			return errors.New("-cluster and -follow are mutually exclusive (a cluster node leads its own slots)")
		}
		var err error
		if peers, err = parsePeers(cfg.peers); err != nil {
			return err
		}
		if clusterAddr, err = advertisedAddr(cfg.clusterAddr, cfg.addr); err != nil {
			return err
		}
	} else if cfg.nodeID != "" || cfg.peers != "" || cfg.clusterAddr != "" {
		return errors.New("-node-id, -peers and -cluster-addr need -cluster")
	}

	stOpts := store.Options{SyncWrites: cfg.sync}
	var bootstrapBytes int64
	if cfg.follow != "" {
		if cfg.data == "" {
			return errors.New("-follow requires -data (replication ships the WAL)")
		}
		// The store-level bootstrap must happen before the core opens: the
		// core loads its shard memory from the store exactly once, so a
		// snapshot restored after New would be invisible until a restart.
		var err error
		bootstrapBytes, err = server.BootstrapFollower(cfg.data, cfg.follow, stOpts)
		if err != nil {
			return fmt.Errorf("bootstrapping from %s: %w", cfg.follow, err)
		}
		if bootstrapBytes > 0 {
			log.Printf("spad: bootstrapped %d snapshot bytes from %s", bootstrapBytes, cfg.follow)
		}
	}
	spa, err := core.New(core.Options{
		DataDir: cfg.data,
		Store:   stOpts,
		Shards:  cfg.shards,
	})
	if err != nil {
		return err
	}

	srv := server.New(spa, server.Options{
		QueueDepth:             cfg.queue,
		MaxBatch:               cfg.maxBatch,
		AccessLog:              cfg.accessLog,
		SlowWave:               cfg.slowWave,
		FollowerOf:             cfg.follow,
		FollowerBootstrapBytes: bootstrapBytes,
		ClusterNodeID:          cfg.nodeID,
		ClusterAddr:            clusterAddr,
		ClusterPeers:           peers,
		ClusterDir:             cfg.data,
	})
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	var streamLn net.Listener
	if cfg.streamAddr != "" {
		var err error
		streamLn, err = net.Listen("tcp", cfg.streamAddr)
		if err != nil {
			spa.Close()
			return fmt.Errorf("stream listener: %w", err)
		}
		go func() {
			if err := srv.ServeStream(streamLn); err != nil {
				log.Printf("spad: stream listener: %v", err)
			}
		}()
		log.Printf("spad: streamed ingest on raw tcp %s", streamLn.Addr())
	}

	var debugSrv *http.Server
	if cfg.debugAddr != "" {
		// The pprof handlers live on http.DefaultServeMux (the blank
		// net/http/pprof import), which the serving path never touches —
		// profiling traffic cannot reach the API listener and vice versa.
		debugSrv = &http.Server{Addr: cfg.debugAddr, Handler: http.DefaultServeMux}
		go func() {
			log.Printf("spad: pprof on %s/debug/pprof/", cfg.debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("spad: debug listener: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		role := ""
		if cfg.follow != "" {
			role = " follower-of=" + cfg.follow
		}
		if cfg.cluster {
			role = fmt.Sprintf(" cluster-node=%s advertised=%s peers=%d", cfg.nodeID, clusterAddr, len(peers))
		}
		log.Printf("spad: serving on %s (data=%q shards=%d sync=%v%s, %d users loaded)",
			cfg.addr, cfg.data, cfg.shards, cfg.sync, role, spa.Users())
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("spad: %v — draining", sig)
	case err := <-errCh:
		if streamLn != nil {
			streamLn.Close()
		}
		srv.Close()
		spa.Close()
		return err
	}

	// Shutdown order matters: flip /readyz to "draining" so load balancers
	// route away while the listener still answers, stop accepting
	// connections and finish in-flight handlers, stop accepting raw stream
	// connections, then drain stream sessions and the coalescer (srv.Close
	// — handlers and stream readers already enqueued are waiting on it),
	// then flush and close the store.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("spad: http shutdown: %v", err)
	}
	if streamLn != nil {
		streamLn.Close()
	}
	srv.Close()
	if debugSrv != nil {
		debugSrv.Close()
	}
	if err := spa.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	log.Printf("spad: drained and closed")
	return nil
}

// parsePeers splits "-peers a=host:port,b=host:port" into a map.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("-peers entry %q is not id=host:port", pair)
		}
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return nil, fmt.Errorf("-peers entry %q: %w", pair, err)
		}
		peers[id] = addr
	}
	return peers, nil
}

// advertisedAddr resolves the address peers and clients reach this node
// at: the explicit -cluster-addr, or -addr with an unspecified host
// ("", 0.0.0.0, ::) replaced by loopback — good enough for the
// single-machine clusters the flag default targets; multi-host deployments
// must set -cluster-addr.
func advertisedAddr(explicit, listen string) (string, error) {
	if explicit != "" {
		if _, _, err := net.SplitHostPort(explicit); err != nil {
			return "", fmt.Errorf("-cluster-addr %q: %w", explicit, err)
		}
		return explicit, nil
	}
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return "", fmt.Errorf("deriving -cluster-addr from -addr %q: %w", listen, err)
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port), nil
}
