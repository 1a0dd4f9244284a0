package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/store"
)

// The serving stack under test, booted in-process exactly as
// `spad -data D -sync -pipeline` boots it: a durable 16-shard core with
// fsynced group commits, server.New with the pipelined dispatcher and
// otherwise default options, behind an http.Server on a loopback socket.

const coreShards = 16

var fixedClock clock.Clock = clock.NewSimulated(coreNow)

// workloadShape is a workload's population and set-up recipe.
type workloadShape struct {
	users          int
	preloadPerUser int  // set-up events ingested per user before the window
	train          bool // fit the propensity model during set-up
	follower       bool // leader + one follower
}

var shapes = map[string]workloadShape{
	wlIngestStream:  {users: 16384},
	wlReadHot:       {users: 4096, preloadPerUser: 64, train: true},
	wlSessionMix:    {users: 8192, preloadPerUser: 8},
	wlReplicaFollow: {users: 4096, preloadPerUser: 64, follower: true},
}

// scaled shrinks the population for -smoke; user counts stay multiples of
// the frame width so lane spans divide evenly.
func (s workloadShape) scaled(div int) workloadShape {
	if div > 1 {
		s.users /= div
	}
	return s
}

// node is one spad-equivalent: core, handler, and (when listening) socket.
type node struct {
	dir string
	spa *core.SPA
	srv *server.Server
	hs  *http.Server
	url string // empty when the node has no listener
	// clock brackets requests at the socket; nil unless the node was served
	// clocked (the traced pass).
	clock *connClock
	// served carries Serve's exit error to shutdown.
	served chan error
}

func openCore(dir string, fops store.FileOps) (*core.SPA, error) {
	return core.New(core.Options{
		DataDir: dir,
		Shards:  coreShards,
		Clock:   fixedClock,
		Store:   store.Options{SyncWrites: true, FileOps: fops},
	})
}

// socket says how a node listens: not at all (the traced pass's handler
// twin), on a plain loopback socket, or on a clocked one (connclock.go).
type socket uint8

const (
	noSocket socket = iota
	plainSocket
	clockedSocket
)

// serve wraps an opened core in the serving layer.
func serve(dir string, spa *core.SPA, opts server.Options, sock socket) (*node, error) {
	opts.Pipeline = true
	// The stack's own log lines (slow waves) would interleave with the
	// report; failures surface through the client instead.
	opts.Logf = func(string, ...any) {}
	n := &node{dir: dir, spa: spa, srv: server.New(spa, opts)}
	if sock == noSocket {
		return n, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.srv.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	n.url = "http://" + ln.Addr().String()
	if sock == clockedSocket {
		n.clock = &connClock{}
		ln = clockedListener{Listener: ln, clock: n.clock}
	}
	n.hs = &http.Server{Handler: n.srv, ReadHeaderTimeout: 10 * time.Second}
	n.served = make(chan error, 1)
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// shutdown drains in spad's order: stop routing, stop the listener, drain
// streams and the coalescer, close the store.
func (n *node) shutdown() error {
	n.srv.BeginDrain()
	var errs []error
	if n.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.hs.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("http shutdown: %w", err))
		}
		cancel()
		if err := <-n.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	n.srv.Close()
	if err := n.spa.Close(); err != nil {
		errs = append(errs, fmt.Errorf("closing store: %w", err))
	}
	return errors.Join(errs...)
}

// dirs hands out fresh data directories under the run's scratch root.
type dirs struct {
	root string
	n    int
}

func (d *dirs) fresh(label string) (string, error) {
	d.n++
	dir := filepath.Join(d.root, fmt.Sprintf("%02d-%s", d.n, label))
	return dir, os.MkdirAll(dir, 0o755)
}

// bulkRegister creates the population in a previous "process life": an
// unsynced core registers everyone and closes, so set-up does not pay one
// fsync per user, and the measured core then opens the directory the way a
// restarted daemon would. The small memtable (sized for about five flushes
// whatever the population) and one-byte log budget make that life seal and
// prune its log, so the directory looks like a long-running leader's: a
// fresh follower's position predates the retained floor and
// BootstrapFollower takes the snapshot path.
func bulkRegister(dir string, seed uint64, users int) error {
	spa, err := core.New(core.Options{
		DataDir: dir,
		Shards:  coreShards,
		Clock:   fixedClock,
		Store:   store.Options{MemtableBytes: users * 64, LogRetainBytes: 1},
	})
	if err != nil {
		return err
	}
	for u := 1; u <= users; u++ {
		if err := spa.Register(uint64(u), objectiveFor(seed, uint64(u))); err != nil {
			spa.Close()
			return fmt.Errorf("registering user %d: %w", u, err)
		}
	}
	return spa.Close()
}

// preloadChunk is how many users' set-up events go into one BatchIngest.
const preloadChunk = 256

// preload ingests events [from, to) of every user's set-up history,
// in-process on the measured core (the CF interaction matrix lives in
// memory only, so it must be built in this process life). Each user's
// slice is recorded for the shadow replay.
func preload(spa *core.SPA, seed uint64, sh workloadShape, from, to int, log *opLog) error {
	for first := 1; first <= sh.users; first += preloadChunk {
		count := min(preloadChunk, sh.users-first+1)
		all := preloadEvents(seed, uint64(first), count, sh.preloadPerUser)
		batch := all[:0:0]
		for u := 0; u < count; u++ {
			evs := all[u*sh.preloadPerUser+from : u*sh.preloadPerUser+to]
			batch = append(batch, evs...)
			log.ingest(uint64(first+u), evs)
		}
		processed, _, err := spa.BatchIngest(batch)
		if err != nil {
			return fmt.Errorf("preloading users %d..%d: %w", first, first+count-1, err)
		}
		if processed != len(batch) {
			return fmt.Errorf("preloading users %d..%d: processed %d of %d events", first, first+count-1, processed, len(batch))
		}
	}
	return nil
}

// trainPropensity fits the Smart Component on a seeded sample of the
// population with seeded labels.
func trainPropensity(spa *core.SPA, seed uint64, users int) error {
	r := rng.New(subSeed(seed, "train", 0))
	n := min(users, 1024)
	features := make([][]float64, 0, n)
	responded := make([]bool, 0, n)
	for _, i := range r.SampleInts(users, n) {
		fv, err := spa.FeatureVector(uint64(i + 1))
		if err != nil {
			return err
		}
		features = append(features, fv)
		// Older users respond more often: the label needs signal or the
		// fitted ranking degenerates to ties.
		p := 0.25
		if fv[0] > 42 {
			p = 0.65
		}
		responded = append(responded, r.Bool(p))
	}
	return spa.TrainPropensity(features, responded)
}

// populate builds one measured core for a workload: registered population,
// reopen, full set-up history, trained model. The traced pass uses it for
// its twin cores; setupStack follows the same steps but brings a follower
// up part-way through the history.
func populate(dir string, seed uint64, sh workloadShape, fops store.FileOps, log *opLog) (*core.SPA, time.Duration, error) {
	if err := bulkRegister(dir, seed, sh.users); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	spa, err := openCore(dir, fops)
	if err != nil {
		return nil, 0, err
	}
	reopen := time.Since(t0)
	if err := preload(spa, seed, sh, 0, sh.preloadPerUser, log); err != nil {
		spa.Close()
		return nil, 0, err
	}
	if sh.train {
		if err := trainPropensity(spa, seed, sh.users); err != nil {
			spa.Close()
			return nil, 0, err
		}
	}
	return spa, reopen, nil
}

// stack is what a timed window runs against.
type stack struct {
	leader   *node
	follower *node // nil unless the workload replicates
	reopen   time.Duration
	// bootstrap is snapshot install + follower open + tail catch-up.
	bootstrap time.Duration
}

func (st *stack) shutdown() error {
	var errs []error
	if st.follower != nil {
		errs = append(errs, st.follower.shutdown())
	}
	if st.leader != nil {
		errs = append(errs, st.leader.shutdown())
	}
	return errors.Join(errs...)
}

// setupStack is the timed set-up: register, reopen, preload, train, boot
// the node(s), bootstrap the follower. Read caches are left cold: the
// window's warm-up traffic fills them.
func setupStack(d *dirs, seed uint64, name string, sh workloadShape, fops store.FileOps, sock socket, log *opLog) (*stack, error) {
	dir, err := d.fresh(name + "-leader")
	if err != nil {
		return nil, err
	}
	st := &stack{}
	ok := false
	defer func() {
		if !ok {
			st.shutdown()
		}
	}()
	// With a follower, three quarters of the history lands before it exists
	// (it arrives in the snapshot); the last quarter streams to it as tail
	// catch-up and gives its CF matrix something to rank. So the leader
	// starts with no history and is preloaded once it serves.
	initial := sh
	if sh.follower {
		initial.preloadPerUser = 0
	}
	spa, reopen, err := populate(dir, seed, initial, fops, log)
	if err != nil {
		return nil, err
	}
	st.reopen = reopen
	if st.leader, err = serve(dir, spa, server.Options{}, sock); err != nil {
		spa.Close()
		return nil, err
	}
	if sh.follower {
		before := sh.preloadPerUser * 3 / 4
		if err := preload(spa, seed, sh, 0, before, log); err != nil {
			return nil, err
		}
		t0 := time.Now()
		fdir, err := d.fresh(name + "-follower")
		if err != nil {
			return nil, err
		}
		restored, err := server.BootstrapFollower(fdir, st.leader.url, store.Options{SyncWrites: true})
		if err != nil {
			return nil, fmt.Errorf("bootstrapping follower: %w", err)
		}
		if restored == 0 {
			return nil, errors.New("follower bootstrap took no snapshot: the leader's log floor did not move")
		}
		fspa, err := openCore(fdir, nil)
		if err != nil {
			return nil, err
		}
		if st.follower, err = serve(fdir, fspa, server.Options{FollowerOf: st.leader.url, FollowerBootstrapBytes: restored}, sock); err != nil {
			fspa.Close()
			return nil, err
		}
		if err := preload(spa, seed, sh, before, sh.preloadPerUser, log); err != nil {
			return nil, err
		}
		if err := waitCaughtUp(st, 30*time.Second); err != nil {
			return nil, err
		}
		st.bootstrap = time.Since(t0)
	}
	ok = true
	return st, nil
}

// waitCaughtUp blocks until the follower has applied the leader's last
// committed record.
func waitCaughtUp(st *stack, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		want, _ := st.leader.spa.AppliedLSN()
		got, _ := st.follower.spa.AppliedLSN()
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at lsn %d, leader at %d", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
