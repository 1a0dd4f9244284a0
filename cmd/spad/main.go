// Command spad is the SPA daemon: it opens (or creates) a profile store,
// wires the sharded core behind the HTTP/JSON wire API of internal/server,
// and serves until SIGINT/SIGTERM, at which point it stops admission,
// drains the ingest coalescer, and closes the store — no accepted request
// and no acknowledged write is lost to a shutdown.
//
// Usage:
//
//	spad [-addr :8372] [-data DIR] [-sync=true]
//	     [-debug-addr ADDR] [-access-log] [-slow-wave 1s]
//	     [-follow LEADER]
//	     [-node-id ID] [-cluster-addr HOST:PORT] [-peers ID=HOST:PORT,...]
//
// An empty -data serves an in-memory (non-durable) instance, useful for
// load experiments; production points -data at a directory. Every group
// commit is fsynced before it is acknowledged; -sync=false acknowledges
// before the fsync, trading the tail of the log on a crash for latency.
// `spad -data D` is exactly the configuration the benchmark (bench/)
// measures: ingest requests merge into waves whose CPU-bound prepare
// overlaps the previous wave's commit, one WAL sync per wave.
//
// -node-id makes this spad one node, so named, of a slot-partitioned
// cluster (internal/server cluster.go): users hash to 256 fixed slots,
// each slot is owned by exactly one node, and requests for users this node
// does not own bounce 421 + X-SPA-Owner so a topology-aware client retries
// against the owner. -peers lists the nodes as comma-separated
// id=host:port pairs (each id once), giving every node the same
// deterministic epoch-1 slot map and a gossip target set; -cluster-addr is
// this node's advertised client-reachable address (defaults to -addr with
// a loopback host filled in). Both need -node-id. Slots move between live
// nodes via POST /v1/cluster/handoff on the receiving node. -node-id and
// -follow are mutually exclusive: a cluster node is a leader for the
// slots it owns.
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
// /v1/ingest/stream. The Go client (internal/spaclient) always sends the
// binary framing, and a refused stream is an error to it, not a cue to
// fall back. The ingest queue (256 requests; a full queue answers 503 +
// Retry-After), the wave cap (64 requests per group commit), the body cap
// (8 MiB per request or stream frame; larger answers 413), the stream
// credit window (32 frames in flight per stream), the drain wait (5 s for a
// stream client to acknowledge the drain frame) and the core's 16 profile
// shards (a memory layout; the store's keys do not depend on it) are
// fixed. SIGTERM drains streams too: live sessions get a drain
// frame, their in-flight frames commit and are answered, then the
// coalescer and store close. /readyz flips to 503 "draining" the moment
// the signal arrives — before the listener shuts — so load balancers
// route away first; /healthz keeps answering 200 for as long as the
// process lives.
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
	debugAddr   string
	data        string
	sync        bool
	accessLog   bool
	slowWave    time.Duration
	follow      string
	nodeID      string
	clusterAddr string
	peers       string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8372", "listen address")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "separate net/http/pprof listener address (empty: profiling off; bind to localhost)")
	flag.StringVar(&cfg.data, "data", "", "profile store directory (empty: in-memory, non-durable)")
	flag.BoolVar(&cfg.sync, "sync", true, "fsync the WAL on every group commit before acknowledging it")
	flag.BoolVar(&cfg.accessLog, "access-log", false, "log one line per completed HTTP request")
	flag.DurationVar(&cfg.slowWave, "slow-wave", time.Second, "log any coalescer wave slower than this gather-to-commit (0: off)")
	flag.StringVar(&cfg.follow, "follow", "", "replicate from this leader (host:port or URL) and serve reads only; requires -data")
	flag.StringVar(&cfg.nodeID, "node-id", "", "serve as this node of a slot-partitioned cluster")
	flag.StringVar(&cfg.clusterAddr, "cluster-addr", "", "advertised client-reachable address (default: -addr with a loopback host; needs -node-id)")
	flag.StringVar(&cfg.peers, "peers", "", "cluster nodes as id=host:port, comma-separated (needs -node-id)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "spad: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	var peers map[string]string
	clusterAddr := ""
	if cfg.nodeID != "" {
		if cfg.follow != "" {
			return errors.New("-node-id and -follow are mutually exclusive (a cluster node leads its own slots)")
		}
		var err error
		if peers, err = parsePeers(cfg.peers); err != nil {
			return err
		}
		if clusterAddr, err = advertisedAddr(cfg.clusterAddr, cfg.addr); err != nil {
			return err
		}
	} else if cfg.peers != "" || cfg.clusterAddr != "" {
		return errors.New("-peers and -cluster-addr need -node-id")
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
	})
	if err != nil {
		return err
	}

	srv := server.New(spa, server.Options{
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
		if cfg.nodeID != "" {
			role = fmt.Sprintf(" cluster-node=%s advertised=%s peers=%d", cfg.nodeID, clusterAddr, len(peers))
		}
		log.Printf("spad: serving on %s (data=%q sync=%v%s, %d users loaded)",
			cfg.addr, cfg.data, cfg.sync, role, spa.Users())
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("spad: %v — draining", sig)
	case err := <-errCh:
		srv.Close()
		spa.Close()
		return err
	}

	// Shutdown order matters: flip /readyz to "draining" so load balancers
	// route away while the listener still answers, stop accepting
	// connections and finish in-flight handlers, then drain stream
	// sessions and the coalescer (srv.Close — handlers and stream readers
	// already enqueued are waiting on it), then flush and close the store.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("spad: http shutdown: %v", err)
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

// parsePeers splits "-peers a=host:port,b=host:port" into a map. A
// repeated id is refused: keeping either address would let two nodes given
// the same pairs in a different order disagree on the epoch-1 slot map.
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
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("-peers names node %q twice", id)
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
