package main

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// The store.Options.FileOps seam, seen from outside. seamOps passes every
// call through to the os package — exactly what the store's default does —
// and counts it; with timed set it also clocks each WAL write and sync and
// keeps them as spans for the traced pass to attribute to the request that
// caused them. Untraced timed runs install no seam at all.

// fileCounters are the seam's running totals.
type fileCounters struct {
	walWrites  atomic.Int64
	walBytes   atomic.Int64
	walSyncs   atomic.Int64
	walOpens   atomic.Int64 // 1 at open + 1 per sealed log, i.e. per memtable flush
	segBytes   atomic.Int64 // flush + compaction output
	mergeBytes atomic.Int64 // compaction output only
}

type fileTotals struct {
	walWrites, walBytes, walSyncs, walOpens, segBytes, mergeBytes int64
}

func (c *fileCounters) read() fileTotals {
	return fileTotals{
		walWrites: c.walWrites.Load(), walBytes: c.walBytes.Load(), walSyncs: c.walSyncs.Load(),
		walOpens: c.walOpens.Load(), segBytes: c.segBytes.Load(), mergeBytes: c.mergeBytes.Load(),
	}
}

func (a fileTotals) sub(b fileTotals) fileTotals {
	return fileTotals{
		walWrites: a.walWrites - b.walWrites, walBytes: a.walBytes - b.walBytes, walSyncs: a.walSyncs - b.walSyncs,
		walOpens: a.walOpens - b.walOpens, segBytes: a.segBytes - b.segBytes, mergeBytes: a.mergeBytes - b.mergeBytes,
	}
}

// fileSpan is one clocked WAL operation.
type fileSpan struct {
	sync       bool // false: write
	start, end time.Time
	bytes      int
}

type seamOps struct {
	fileCounters
	timed bool

	mu    sync.Mutex
	spans []fileSpan
}

var _ store.FileOps = (*seamOps)(nil)

// take returns and clears the WAL spans clocked since the last take.
func (o *seamOps) take() []fileSpan {
	o.mu.Lock()
	out := o.spans
	o.spans = nil
	o.mu.Unlock()
	return out
}

func (o *seamOps) note(s fileSpan) {
	o.mu.Lock()
	o.spans = append(o.spans, s)
	o.mu.Unlock()
}

func (o *seamOps) Create(name string) (store.SegFile, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	// Compaction writes its output under "<segment>.merge.tmp"; a flush
	// writes "<segment>.tmp". The name is the only thing that tells them
	// apart at this seam.
	return &seamSeg{File: f, ops: o, merge: strings.Contains(name, ".merge")}, nil
}

func (o *seamOps) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (o *seamOps) Remove(name string) error             { return os.Remove(name) }

func (o *seamOps) OpenWAL(name string) (store.WALFile, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	o.walOpens.Add(1)
	return &seamWAL{File: f, ops: o}, nil
}

type seamSeg struct {
	*os.File
	ops   *seamOps
	merge bool
}

func (s *seamSeg) Write(p []byte) (int, error) {
	n, err := s.File.Write(p)
	s.ops.segBytes.Add(int64(n))
	if s.merge {
		s.ops.mergeBytes.Add(int64(n))
	}
	return n, err
}

type seamWAL struct {
	*os.File
	ops *seamOps
}

func (w *seamWAL) Write(p []byte) (int, error) {
	if !w.ops.timed {
		n, err := w.File.Write(p)
		w.ops.walWrites.Add(1)
		w.ops.walBytes.Add(int64(n))
		return n, err
	}
	t0 := time.Now()
	n, err := w.File.Write(p)
	t1 := time.Now()
	w.ops.walWrites.Add(1)
	w.ops.walBytes.Add(int64(n))
	w.ops.note(fileSpan{start: t0, end: t1, bytes: n})
	return n, err
}

func (w *seamWAL) Sync() error {
	if !w.ops.timed {
		err := w.File.Sync()
		w.ops.walSyncs.Add(1)
		return err
	}
	t0 := time.Now()
	err := w.File.Sync()
	t1 := time.Now()
	w.ops.walSyncs.Add(1)
	w.ops.note(fileSpan{sync: true, start: t0, end: t1})
	return err
}
