package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/server"
	"repro/internal/spaclient"
	"repro/internal/store"
	"repro/internal/wire"
)

// The traced pass: concurrency 1, fixed operation counts, spans recorded by
// the harness itself around calls into each layer's exported functions.
// One request cannot be cut open from outside, so it is replayed — the
// identical seed-derived request — on twin stacks, each exposing one more
// boundary:
//
//	net      client call over loopback against a full stack whose store
//	         runs on the clocking FileOps seam and whose socket is clocked
//	         (connclock.go): the client's span, and inside it the request as
//	         the server process saw it, first byte in to last byte out
//	plain    the same call against a full stack with no seam at all: the
//	         difference is what clocking the seams costs (trace.overhead_share)
//	handler  server.ServeHTTP with an httptest recorder, no socket
//	core     wire.DecodeIngestRequest, core.PrepareMulti, PreparedMulti.Commit
//	         (or SubmitAnswer/Reward) on a bare core
//	scratch  the wave's log records, read back with core.TailLog, replayed
//	         through store.ApplyAll (or Put) on an empty DB over the seam
//	follower the same records through wire.EncodeReplWave/DecodeReplWave
//	         and core.ApplyReplicatedWave (replica_follow only)
//
// A layer's self time is its span minus the spans attributed beneath it,
// computed per request and reported as a median. The client library's is
// measured on one stack (client span minus the socket-side span), every
// other layer's on the twins beneath; so the self times do not telescope,
// and what they leave of the client's span (trace.unattributed_share) is a
// measurement: the socket-side span minus ServeHTTP through a recorder —
// net/http's connection handling, the stream session's framing, goroutine
// hand-offs — plus whatever differs between the twins. Every fourth request
// records heap allocations per call instead of time, so the allocation
// reads (which stop the world) never sit next to a timed span.

// Operation counts are fixed, so that counts repeat exactly: a quarter of
// the issue's (2,000 frames / 5,000 reads / 500 sessions / 2,000 waves),
// which keeps a traced run inside the driver's time budget; -smoke runs a
// tenth of that.
const (
	traceIngests  = 500
	traceReads    = 1250
	traceSessions = 125
	traceWaves    = 500
	allocEvery    = 4
)

var traceStart = windowStart.AddDate(0, 6, 0) // after anything a window stamped

type span struct {
	Trace   uint64 `json:"trace"`
	Span    uint64 `json:"span"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Trace: trace, Span: id, Parent: parent, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	return id
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// series collects named samples: microseconds for times, counts for allocs.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
func (s series) median(name string) float64 { return medianFloat(s[name]) }
func (s series) n(name string) int          { return len(s[name]) }

type tracePass struct {
	cfg  *config
	name string
	sh   workloadShape
	main *stack // the timed stack; the traced pass only reads from it

	tr     tracer
	us     series // span durations and self times, microseconds
	allocs series // heap allocations per call

	// Twins; nil on read_hot, which has no write kind to cut open.
	net         *node
	netSeam     *seamOps
	plain       *node
	handler     *node
	core        *core.SPA
	scratch     *store.DB
	scratchSeam *seamOps
	follower    *core.SPA
	tail        *store.LogTail

	netClient, plainClient *spaclient.Client
	netStream, plainStream *spaclient.StreamIngester

	reqs         int // requests traced so far; drives the alloc rounds
	frameBytes   int64
	frameEvents  int64
	payloadBytes int64
	waves        int64 // write requests seen by the net twin (one wave each)
	waveFiles    fileTotals
}

// allocRound reports whether the current request records allocations.
func (p *tracePass) allocRound() bool { return p.reqs%allocEvery == 0 }

// call runs f as one span. On an alloc round it records f's heap
// allocations under name and no time.
func (p *tracePass) call(trace, parent uint64, name string, f func()) (uint64, float64) {
	if p.allocRound() {
		m0 := mallocsNow()
		f()
		p.allocs.add(name, float64(mallocsNow()-m0))
		return 0, 0
	}
	t0 := time.Now()
	f()
	t1 := time.Now()
	d := float64(t1.Sub(t0)) / 1e3
	p.us.add(name, d)
	return p.tr.add(trace, parent, name, t0, t1), d
}

// self records a per-request self time (timed rounds only).
func (p *tracePass) self(name string, v float64) {
	if !p.allocRound() {
		p.us.add(name, v)
	}
}

// resetClocks clears the socket brackets of the nodes a client call is about
// to reach.
func resetClocks(nodes []*node) {
	for _, n := range nodes {
		n.clock.take()
	}
}

// boundary records the request the client call just made as the server
// process saw it at the socket — over whichever of nodes it reached — as a
// span beneath the client's, and returns its duration in microseconds.
func (p *tracePass) boundary(trace, parent uint64, nodes []*node) (float64, error) {
	var start, end time.Time
	for _, n := range nodes {
		s, e := n.clock.take()
		if s.IsZero() || e.Before(s) {
			continue
		}
		if start.IsZero() || s.Before(start) {
			start = s
		}
		if e.After(end) {
			end = e
		}
	}
	if start.IsZero() {
		return 0, fmt.Errorf("trace %d: the client call crossed no clocked socket", trace)
	}
	if p.allocRound() {
		return 0, nil
	}
	p.tr.add(trace, parent, "server.socket", start, end)
	d := float64(end.Sub(start)) / 1e3
	p.us.add("server.socket", d)
	return d, nil
}

func (p *tracePass) count(base int) int {
	if p.cfg.scale > 1 {
		return base / 10
	}
	return base
}

// tracedPass runs the workload's traced pass and adds its per-layer
// metrics to ms. The spans go to <out>/<workload>.trace.jsonl.
func tracedPass(cfg *config, name string, sh workloadShape, main *stack, d *dirs, ms metricSet) error {
	p := &tracePass{cfg: cfg, name: name, sh: sh, main: main, us: series{}, allocs: series{}}
	p.tr.t0 = time.Now()
	defer p.close()
	if name != wlReadHot {
		if err := p.bootTwins(d); err != nil {
			return err
		}
	}
	if err := p.snapshotCosts(d, ms); err != nil {
		return err
	}
	var err error
	switch name {
	case wlIngestStream:
		err = p.frames(p.count(traceIngests), false)
	case wlReadHot:
		mainClient := newClient(main.leader.url, spaclient.Options{})
		gen := newReadGen(cfg.seed, 1000, hotUsers(cfg.seed, sh.users), readHotMix)
		for i := 0; i < p.count(traceReads) && err == nil; i++ {
			err = p.read(gen.next(), mainClient, []*node{main.leader}, main.leader.srv, main.leader.spa)
		}
	case wlSessionMix:
		err = p.sessions(p.count(traceSessions))
	case wlReplicaFollow:
		if err = p.frames(p.count(traceWaves), true); err == nil {
			routed := newClient(main.leader.url, spaclient.Options{ReadFrom: []string{main.follower.url}, MaxStalenessWaves: 64})
			gen := newReadGen(cfg.seed, 1000, allUsers(sh.users), replicaMix)
			for i := 0; i < p.count(traceReads)/4 && err == nil; i++ {
				err = p.read(gen.next(), routed, []*node{main.leader, main.follower}, main.leader.srv, main.leader.spa)
			}
		}
	}
	if err != nil {
		return err
	}
	p.metrics(ms)
	return p.tr.write(filepath.Join(cfg.outDir, name+".trace.jsonl"))
}

func (p *tracePass) close() {
	if p.netStream != nil {
		p.netStream.Close()
	}
	if p.plainStream != nil {
		p.plainStream.Close()
	}
	if p.tail != nil {
		p.tail.Close()
	}
	if p.net != nil {
		p.net.shutdown()
	}
	if p.plain != nil {
		p.plain.shutdown()
	}
	if p.handler != nil {
		p.handler.shutdown()
	}
	if p.core != nil {
		p.core.Close()
	}
	if p.scratch != nil {
		p.scratch.Close()
	}
	if p.follower != nil {
		p.follower.Close()
	}
}

// bootTwins populates the net, plain, handler and core twins exactly as the
// timed stack was populated, and opens the scratch DB.
func (p *tracePass) bootTwins(d *dirs) error {
	twin := func(label string, fops store.FileOps) (string, *core.SPA, error) {
		dir, err := d.fresh(p.name + "-trace-" + label)
		if err != nil {
			return "", nil, err
		}
		spa, _, err := populate(dir, p.cfg.seed, p.sh, fops, nil)
		return dir, spa, err
	}
	p.netSeam = &seamOps{timed: true}
	dir, spa, err := twin("net", p.netSeam)
	if err != nil {
		return err
	}
	if p.net, err = serve(dir, spa, server.Options{}, clockedSocket); err != nil {
		spa.Close()
		return err
	}
	p.netClient = newClient(p.net.url, spaclient.Options{})
	p.netStream = p.netClient.Stream(spaclient.StreamOptions{})

	if dir, spa, err = twin("plain", nil); err != nil {
		return err
	}
	if p.plain, err = serve(dir, spa, server.Options{}, plainSocket); err != nil {
		spa.Close()
		return err
	}
	p.plainClient = newClient(p.plain.url, spaclient.Options{})
	p.plainStream = p.plainClient.Stream(spaclient.StreamOptions{})

	if dir, spa, err = twin("handler", nil); err != nil {
		return err
	}
	if p.handler, err = serve(dir, spa, server.Options{}, noSocket); err != nil {
		spa.Close()
		return err
	}

	if _, p.core, err = twin("core", nil); err != nil {
		return err
	}
	applied, _ := p.core.AppliedLSN()
	if p.tail, err = p.core.TailLog(applied + 1); err != nil {
		return err
	}

	p.scratchSeam = &seamOps{timed: true}
	if dir, err = d.fresh(p.name + "-trace-scratch"); err != nil {
		return err
	}
	p.scratch, err = store.Open(dir, store.Options{SyncWrites: true, FileOps: p.scratchSeam})
	return err
}

// snapshotCosts times the set-up-path calls once: snapshot export, its
// restore into an empty store, and opening the restored store. On
// replica_follow the restored directory becomes the follower twin, which
// is therefore positioned exactly at the core twin's LSN.
func (p *tracePass) snapshotCosts(d *dirs, ms metricSet) error {
	src := p.core
	if src == nil {
		src = p.main.leader.spa
	}
	t0 := time.Now()
	pairs, lsn, err := src.ExportSnapshot()
	if err != nil {
		return err
	}
	ms.set("core.export_snapshot_ms", float64(time.Since(t0))/1e6, 1)
	dir, err := d.fresh(p.name + "-trace-restored")
	if err != nil {
		return err
	}
	db, err := store.Open(dir, store.Options{SyncWrites: true})
	if err != nil {
		return err
	}
	t0 = time.Now()
	err = db.RestoreSnapshot(pairs, lsn)
	ms.set("store.restore_snapshot_ms", float64(time.Since(t0))/1e6, 1)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t0 = time.Now()
	if db, err = store.Open(dir, store.Options{SyncWrites: true}); err != nil {
		return err
	}
	ms.set("store.open_ms", float64(time.Since(t0))/1e6, 1)
	if err := db.Close(); err != nil {
		return err
	}
	if p.sh.follower && p.core != nil {
		p.follower, err = openCore(dir, nil)
	}
	return err
}

// frames traces n device-upload frames through the ingest chain over the
// stream transport.
func (p *tracePass) frames(n int, repl bool) error {
	span := p.sh.users / frameUsers * frameUsers
	gen := newFrameGen(p.cfg.seed, 1000, 1, span)
	for i := range gen.cursor {
		gen.cursor[i] = traceStart.Add(time.Duration(i) * time.Second).UnixNano()
	}
	buf := make([]lifelog.Event, frameEvents)
	for i := 0; i < n; i++ {
		gen.next(buf)
		if err := p.ingest(buf, true, repl); err != nil {
			return err
		}
	}
	return nil
}

// ingest traces one ingest request down the chain of twins.
func (p *tracePass) ingest(events []lifelog.Event, stream, repl bool) error {
	p.reqs++
	trace := uint64(p.reqs)
	want := len(events)
	clientSpan := "spaclient.ingest"
	if stream {
		clientSpan = "spaclient.stream_ingest"
	}

	var frame []byte
	p.call(trace, 0, "wire.encode_req", func() { frame = wire.EncodeIngestRequest(wire.FromEvents(events)) })
	p.frameBytes += int64(len(frame))
	p.frameEvents += int64(want)

	send := func(cl *spaclient.Client, si *spaclient.StreamIngester) (wire.IngestResponse, error) {
		if stream {
			return si.Ingest(events)
		}
		return cl.Ingest(events)
	}
	var resp wire.IngestResponse
	var err error
	p.netSeam.take()
	before := p.netSeam.read()
	netTwin := []*node{p.net}
	resetClocks(netTwin)
	root, a := p.call(trace, 0, clientSpan, func() { resp, err = send(p.netClient, p.netStream) })
	if err != nil || resp.Processed != want {
		return fmt.Errorf("%s on the net twin: processed %d of %d: %v", clientSpan, resp.Processed, want, err)
	}
	sock, err := p.boundary(trace, root, netTwin)
	if err != nil {
		return err
	}
	// At concurrency 1 a request is its own wave: everything the seam saw
	// between send and ack belongs to it.
	d := p.netSeam.read().sub(before)
	p.waves++
	p.waveFiles.walWrites += d.walWrites
	p.waveFiles.walBytes += d.walBytes
	p.waveFiles.walSyncs += d.walSyncs

	p.call(trace, 0, clientSpan+".plain", func() { resp, err = send(p.plainClient, p.plainStream) })
	if err != nil || resp.Processed != want {
		return fmt.Errorf("%s on the plain twin: processed %d of %d: %v", clientSpan, resp.Processed, want, err)
	}

	req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	rec := httptest.NewRecorder()
	hID, h := p.call(trace, root, "server.serve_http", func() { p.handler.srv.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("ServeHTTP ingest on the handler twin: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}

	var wev []wire.Event
	_, dec := p.call(trace, hID, "wire.decode_req", func() { wev, err = wire.DecodeIngestRequest(frame) })
	if err != nil {
		return err
	}
	evs := wire.ToEvents(wev)
	var pm *core.PreparedMulti
	_, prep := p.call(trace, hID, "core.prepare", func() { pm = p.core.PrepareMulti([][]lifelog.Event{evs}) })
	var outs []core.IngestOutcome
	cID, commit := p.call(trace, hID, "core.commit", func() { outs = pm.Commit() })
	if outs[0].Err != nil || outs[0].Processed != want {
		return fmt.Errorf("commit on the core twin: processed %d of %d: %v", outs[0].Processed, want, outs[0].Err)
	}

	recs, err := p.readTail(trace, cID)
	if err != nil {
		return err
	}
	batches := make([]*store.WriteBatch, len(recs))
	for i, r := range recs {
		b := new(store.WriteBatch)
		for _, e := range r.Entries {
			if e.Tombstone {
				b.Delete(e.Key)
			} else {
				b.Put(e.Key, e.Value)
			}
			p.payloadBytes += int64(len(e.Key) + len(e.Value))
		}
		if len(r.Annotation) > 0 {
			b.SetAnnotation(r.Annotation)
			p.payloadBytes += int64(len(r.Annotation))
		}
		batches[i] = b
	}
	p.scratchSeam.take()
	aID, apply := p.call(trace, cID, "store.apply_all", func() { err = p.scratch.ApplyAll(batches) })
	if err != nil {
		return fmt.Errorf("ApplyAll on the scratch DB: %w", err)
	}
	file := p.fileSpans(trace, aID, p.scratchSeam.take())

	p.self(clientSpan+".self", a-sock)
	p.self("server.ingest.self", h-dec-prep-commit)
	p.self("core.commit.self", commit-apply)
	p.self("store.apply_all.self", apply-file)
	p.self("file.wal", file)

	if repl {
		for _, r := range recs {
			if err := p.replicate(trace, cID, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// fileSpans records a request's clocked WAL operations beneath parent and
// returns their total duration in microseconds.
func (p *tracePass) fileSpans(trace, parent uint64, spans []fileSpan) float64 {
	var total float64
	for _, s := range spans {
		d := float64(s.end.Sub(s.start)) / 1e3
		total += d
		if p.allocRound() {
			continue
		}
		name := "file.wal_write"
		if s.sync {
			name = "file.wal_sync"
		}
		p.us.add(name, d)
		p.tr.add(trace, parent, name, s.start, s.end)
	}
	return total
}

// readTail drains the core twin's log tail up to its committed position:
// the records the request just wrote.
func (p *tracePass) readTail(trace, parent uint64) ([]store.LogRecord, error) {
	applied, _ := p.core.AppliedLSN()
	var recs []store.LogRecord
	for {
		var rec store.LogRecord
		var err error
		p.call(trace, parent, "store.tail_next", func() { rec, err = p.tail.Next() })
		if err != nil {
			return nil, fmt.Errorf("tailing the core twin's log: %w", err)
		}
		recs = append(recs, rec)
		if rec.LSN >= applied {
			return recs, nil
		}
	}
}

// replicate ships one log record the way the replication stream does.
func (p *tracePass) replicate(trace, parent uint64, r store.LogRecord) error {
	w := wire.ReplWave{LSN: r.LSN, Annotation: r.Annotation, Entries: make([]wire.ReplEntry, len(r.Entries))}
	for i, e := range r.Entries {
		w.Entries[i] = wire.ReplEntry{Key: e.Key, Value: e.Value, Tombstone: e.Tombstone}
	}
	var frame []byte
	p.call(trace, parent, "wire.encode_repl_wave", func() { frame = wire.EncodeReplWave(w) })
	var err error
	p.call(trace, parent, "wire.decode_repl_wave", func() { _, err = wire.DecodeReplWave(frame) })
	if err != nil {
		return err
	}
	p.call(trace, parent, "core.apply_replicated_wave", func() { err = p.follower.ApplyReplicatedWave(r.LSN, r.Annotation, r.Entries) })
	if err != nil {
		return fmt.Errorf("ApplyReplicatedWave on the follower twin: %w", err)
	}
	return nil
}

func readPath(op readOp) string {
	switch op.kind {
	case rkRecommend:
		return fmt.Sprintf("/v1/users/%d/recommendations?n=%d", op.user, readTopN)
	case rkAdvise:
		return fmt.Sprintf("/v1/users/%d/advice?domain=training", op.user)
	case rkPropensity:
		return fmt.Sprintf("/v1/users/%d/propensity", op.user)
	case rkSensibilities:
		return fmt.Sprintf("/v1/users/%d/sensibilities", op.user)
	case rkQuestion:
		return fmt.Sprintf("/v1/users/%d/question", op.user)
	default:
		return fmt.Sprintf("/v1/select-top?k=%d", readTopN)
	}
}

// read traces one read: over the socket (cl reaches the clocked nodes in
// via), through the handler alone, and as the bare core call. Each of the
// three may sit on a different twin, so a read that follows a commit is the
// first read after it on every one.
func (p *tracePass) read(op readOp, cl *spaclient.Client, via []*node, handler http.Handler, spa *core.SPA) error {
	p.reqs++
	trace := uint64(p.reqs)
	var err error
	resetClocks(via)
	root, a := p.call(trace, 0, "spaclient.read", func() { _, err = doRead(cl, op) })
	if err != nil {
		return fmt.Errorf("read %v user %d: %w", op.kind, op.user, err)
	}
	sock, err := p.boundary(trace, root, via)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", readPath(op), nil)
	hID, h := p.call(trace, root, "server.serve_http", func() { handler.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("ServeHTTP %s: %d %s", readPath(op), rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	_, c := p.call(trace, hID, "core."+op.kind.String(), func() {
		if op.kind == rkQuestion {
			_, err = spa.NextQuestion(op.user)
		} else {
			_, err = expectedRead(spa, op)
		}
	})
	if err != nil {
		return err
	}
	p.self("spaclient.read.self", a-sock)
	p.self("server.read.self", h-c)
	p.self("core.read", c)
	return nil
}

// singleWrite traces one single-profile write (submit-answer, reward or
// punish): the store's one-Put path instead of ApplyAll.
func (p *tracePass) singleWrite(user uint64, kind opKind, item, option int, attr emotion.Attribute) error {
	p.reqs++
	trace := uint64(p.reqs)
	var path string
	var body any
	coreSpan := "core.reward"
	switch kind {
	case opAnswer:
		path, body, coreSpan = fmt.Sprintf("/v1/users/%d/answer", user), wire.AnswerRequest{ItemID: item, Option: option}, "core.submit_answer"
	case opReward:
		path, body = fmt.Sprintf("/v1/users/%d/reward", user), wire.AttributesRequest{Attributes: []string{attr.String()}}
	default:
		path, body = fmt.Sprintf("/v1/users/%d/punish", user), wire.AttributesRequest{Attributes: []string{attr.String()}}
	}
	send := func(cl *spaclient.Client) error {
		switch kind {
		case opAnswer:
			return cl.SubmitAnswer(user, item, option)
		case opReward:
			return cl.Reward(user, []string{attr.String()})
		default:
			return cl.Punish(user, []string{attr.String()})
		}
	}
	var err error
	root, _ := p.call(trace, 0, "spaclient.write", func() { err = send(p.netClient) })
	if err != nil {
		return fmt.Errorf("single write on the net twin: %w", err)
	}
	p.call(trace, 0, "spaclient.write.plain", func() { err = send(p.plainClient) })
	if err != nil {
		return fmt.Errorf("single write on the plain twin: %w", err)
	}

	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	hID, h := p.call(trace, root, "server.serve_http", func() { p.handler.srv.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("ServeHTTP %s: %d %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	cID, c := p.call(trace, hID, coreSpan, func() {
		switch kind {
		case opAnswer:
			err = p.core.SubmitAnswer(user, emotion.Answer{ItemID: item, Option: option})
		case opReward:
			err = p.core.Reward(user, []emotion.Attribute{attr})
		default:
			err = p.core.Punish(user, []emotion.Attribute{attr})
		}
	})
	if err != nil {
		return fmt.Errorf("%s on the core twin: %w", coreSpan, err)
	}
	recs, err := p.readTail(trace, cID)
	if err != nil {
		return err
	}
	for _, r := range recs {
		for _, e := range r.Entries {
			p.call(trace, cID, "store.put", func() { err = p.scratch.Put(e.Key, e.Value) })
			if err != nil {
				return err
			}
			p.payloadBytes += int64(len(e.Key) + len(e.Value))
		}
	}
	p.scratchSeam.take()
	p.self("server.single_write.self", h-c)
	return nil
}

// sessions traces n [S6]-shaped sessions, every step down its own chain.
func (p *tracePass) sessions(n int) error {
	gen := newSessionGen(subSeed(p.cfg.seed, "trace-sessions", 0), p.sh.users)
	cursor := make([]int64, p.sh.users+1)
	for u := range cursor {
		cursor[u] = traceStart.Add(time.Duration(u) * time.Second).UnixNano()
	}
	var plan sessionPlan
	buf := make([]lifelog.Event, 0, len(plan.types))
	for i := 0; i < n; i++ {
		gen.next(&plan)
		u := plan.user
		evs := plan.events(&cursor[u], buf)
		if err := p.ingest(evs, false, false); err != nil {
			return err
		}
		if err := p.read(readOp{kind: rkRecommend, user: u}, p.netClient, []*node{p.net}, p.handler.srv, p.core); err != nil {
			return err
		}
		if plan.question {
			if err := p.read(readOp{kind: rkQuestion, user: u}, p.netClient, []*node{p.net}, p.handler.srv, p.core); err != nil {
				return err
			}
			item, err := p.core.NextQuestion(u)
			if err != nil {
				return err
			}
			if err := p.singleWrite(u, opAnswer, item.ID, plan.answerOpt%len(item.Options), 0); err != nil {
				return err
			}
		}
		if plan.reinforce {
			kind := opPunish
			if plan.reward {
				kind = opReward
			}
			attr, _ := emotion.ParseAttribute(plan.attr) // plan.attr came from Attribute.String
			if err := p.singleWrite(u, kind, 0, 0, attr); err != nil {
				return err
			}
		}
	}
	return nil
}

// metrics turns the collected series into the per-layer metrics.
func (p *tracePass) metrics(ms metricSet) {
	us := func(metric, series string) { ms.set(metric, p.us.median(series), p.us.n(series)) }
	al := func(metric, series string) { ms.set(metric, p.allocs.median(series), p.allocs.n(series)) }

	us("wire.encode_req_us", "wire.encode_req")
	us("wire.decode_req_us", "wire.decode_req")
	al("wire.decode_req_allocs", "wire.decode_req")
	ms.set("wire.req_bytes_per_event", ratio(float64(p.frameBytes), float64(p.frameEvents)), int(p.frameEvents))
	us("wire.encode_repl_wave_us", "wire.encode_repl_wave")
	us("wire.decode_repl_wave_us", "wire.decode_repl_wave")

	us("spaclient.ingest_self_us", "spaclient.ingest.self")
	us("spaclient.stream_ingest_self_us", "spaclient.stream_ingest.self")
	us("spaclient.read_self_us", "spaclient.read.self")
	clientSpan := "spaclient.ingest"
	if p.us.n("spaclient.stream_ingest") > 0 {
		clientSpan = "spaclient.stream_ingest"
	}
	al("spaclient.allocs_per_ingest", clientSpan)

	us("server.ingest_self_us", "server.ingest.self")
	us("server.read_self_us", "server.read.self")
	us("server.single_write_self_us", "server.single_write.self")
	al("server.serve_http_allocs", "server.serve_http")

	us("core.prepare_us", "core.prepare")
	us("core.commit_self_us", "core.commit.self")
	al("core.prepare_allocs", "core.prepare")
	al("core.commit_allocs", "core.commit")
	us("core.recommend_us", "core.recommend")
	us("core.advise_us", "core.advise")
	us("core.propensity_us", "core.propensity")
	us("core.select_top_us", "core.select_top")
	us("core.submit_answer_us", "core.submit_answer")
	us("core.reward_us", "core.reward")
	us("core.apply_replicated_wave_us", "core.apply_replicated_wave")

	us("store.apply_all_us", "store.apply_all")
	us("store.apply_all_self_us", "store.apply_all.self")
	us("store.put_us", "store.put")
	us("store.tail_next_us", "store.tail_next")
	if p.scratchSeam != nil {
		ms.set("store.wal_bytes_per_payload_byte", ratio(float64(p.scratchSeam.walBytes.Load()), float64(p.payloadBytes)), int(p.waves))
	}
	ms.set("store.syncs_per_wave", ratio(float64(p.waveFiles.walSyncs), float64(p.waves)), int(p.waves))
	ms.set("file.wal_writes_per_wave", ratio(float64(p.waveFiles.walWrites), float64(p.waves)), int(p.waves))
	ms.set("file.wal_bytes_per_wave", ratio(float64(p.waveFiles.walBytes), float64(p.waves)), int(p.waves))
	syncs := append([]float64(nil), p.us["file.wal_sync"]...)
	sort.Float64s(syncs)
	ms.set("file.wal_sync_p50_us", p.us.median("file.wal_sync"), len(syncs))
	if len(syncs) > 0 {
		ms.set("file.wal_sync_p99_us", syncs[min(len(syncs)-1, len(syncs)*99/100)], len(syncs))
	}

	// The accounting: how much of the concurrency-1 end-to-end median the
	// layers' self-time medians leave unexplained, for the workload's main
	// request kind (the client's self time comes from the socket bracket,
	// the rest from the twins beneath, so nothing cancels by construction),
	// and what clocking the seams costs the client's view.
	if p.us.n(clientSpan) > 0 {
		explained := p.us.median(clientSpan+".self") + p.us.median("server.ingest.self") + p.us.median("wire.decode_req") +
			p.us.median("core.prepare") + p.us.median("core.commit.self") + p.us.median("store.apply_all.self") + p.us.median("file.wal")
		e2e := p.us.median(clientSpan)
		ms.set("trace.unattributed_share", 1-ratio(explained, e2e), p.us.n(clientSpan))
		plain := p.us.median(clientSpan + ".plain")
		ms.set("trace.overhead_share", ratio(e2e-plain, plain), p.us.n(clientSpan))
	} else if n := p.us.n("spaclient.read"); n > 0 {
		explained := p.us.median("spaclient.read.self") + p.us.median("server.read.self") + p.us.median("core.read")
		ms.set("trace.unattributed_share", 1-ratio(explained, p.us.median("spaclient.read")), n)
		// A read never reaches the seam: nothing is wrapped on its path.
		ms.set("trace.overhead_share", 0, n)
	}
}
