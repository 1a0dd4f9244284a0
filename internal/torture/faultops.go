// Package torture is the storage fault-schedule sweep: it composes
// seed-derived FileOps fault schedules (fail / short-write / kill at the
// Nth WAL write, WAL sync, segment create, segment write, segment sync,
// rename, or remove) with concurrent ingest workloads — PrepareMulti/Commit
// waves over a sharded core, background compaction,
// graceful and crash reopen cycles — and after every schedule reopens the
// surviving directory and checks the store's crash-consistency contract
// against a fault-free shadow core fed the identical waves.
//
// Everything a schedule does — population size, shard count, wave
// contents, fault classes, trigger counts, reopen points — is a pure
// function of one uint64 seed, so a reported violation reproduces from
// its seed alone (`go test ./internal/torture -torture.seed=N`, or
// `spabench -torture -seed N`). The invariants themselves are
// interleaving-independent: background compaction and shard fan-out may
// schedule differently between runs, but the set of states a user's
// durable profile is allowed to occupy does not.
package torture

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/store"
)

// ErrInjected tags every fault the scheduler fires, so harness code (and
// curious store layers) can tell injected failures from real ones.
var ErrInjected = errors.New("torture: injected fault")

// OpClass names one interceptable filesystem operation class.
type OpClass int

const (
	OpWALWrite OpClass = iota
	OpWALSync
	OpSegCreate
	OpSegWrite
	OpSegSync
	OpRename
	OpRemove
	numOpClasses
)

func (c OpClass) String() string {
	switch c {
	case OpWALWrite:
		return "wal-write"
	case OpWALSync:
		return "wal-sync"
	case OpSegCreate:
		return "seg-create"
	case OpSegWrite:
		return "seg-write"
	case OpSegSync:
		return "seg-sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	}
	return fmt.Sprintf("op-%d", int(c))
}

// Mode is what happens when a fault triggers.
type Mode int

const (
	// ModeFail returns an error without touching the file — a one-shot
	// EIO; the same op class succeeds again afterwards.
	ModeFail Mode = iota
	// ModeShort writes a prefix of the payload and then errors — a torn
	// write, the case WAL CRC framing and recovery truncation exist for.
	// On non-write classes it degrades to ModeFail.
	ModeShort
	// ModeKill fails this and every later mutation op of every class
	// until Revive — the storage device dying under the process.
	ModeKill
)

func (m Mode) String() string {
	switch m {
	case ModeFail:
		return "fail"
	case ModeShort:
		return "short-write"
	case ModeKill:
		return "kill"
	}
	return fmt.Sprintf("mode-%d", int(m))
}

// Fault is one scheduled trigger: the Nth armed op of Class fires Mode.
type Fault struct {
	Class OpClass
	Mode  Mode
	Nth   uint64
}

func (f Fault) String() string {
	return fmt.Sprintf("%s#%d:%s", f.Class, f.Nth, f.Mode)
}

// ScheduledOps is a store.FileOps that executes a fault schedule. It
// passes everything through to the real filesystem until Arm (so setup
// traffic like user registration doesn't consume trigger counts), then
// counts ops per class and fires the scheduled faults. All mutation ops
// are gated; reads (WAL replay, segment loads) always pass, matching a
// device whose written sectors stay readable.
type ScheduledOps struct {
	mu     sync.Mutex
	armed  bool
	killed bool
	counts [numOpClasses]uint64
	plan   []Fault
	fired  []string
}

// NewScheduledOps builds an unarmed scheduler for the given plan.
func NewScheduledOps(plan []Fault) *ScheduledOps {
	return &ScheduledOps{plan: plan}
}

// Arm starts counting ops against the schedule.
func (o *ScheduledOps) Arm() {
	o.mu.Lock()
	o.armed = true
	o.mu.Unlock()
}

// Revive clears a ModeKill — the device coming back after a restart. The
// op counters and any unfired faults keep going.
func (o *ScheduledOps) Revive() {
	o.mu.Lock()
	o.killed = false
	o.mu.Unlock()
}

// Kill fails every subsequent mutation op, exactly as a fired ModeKill
// fault would. The harness uses it to fence an abandoned ("crashed")
// store instance off the directory before inspecting or copying it.
func (o *ScheduledOps) Kill() {
	o.mu.Lock()
	o.killed = true
	o.mu.Unlock()
}

// Fork clones the scheduler for a store reopened after a crash: the
// clone continues the op counts and any unfired faults with the device
// revived, while the original stays killed — permanently fencing the
// abandoned instance (and its background compactor) off the directory.
func (o *ScheduledOps) Fork() *ScheduledOps {
	o.mu.Lock()
	defer o.mu.Unlock()
	return &ScheduledOps{
		armed:  o.armed,
		counts: o.counts,
		plan:   o.plan,
		fired:  append([]string(nil), o.fired...),
	}
}

// Fired reports the faults that actually triggered, in firing order.
func (o *ScheduledOps) Fired() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.fired...)
}

// step counts one op and decides its fate: nil error (pass), a fault
// error, or a fault error with short=true (write a prefix first).
func (o *ScheduledOps) step(class OpClass) (short bool, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.armed {
		return false, nil
	}
	if o.killed {
		return false, fmt.Errorf("%w: %s while device killed", ErrInjected, class)
	}
	o.counts[class]++
	for _, f := range o.plan {
		if f.Class != class || f.Nth != o.counts[class] {
			continue
		}
		o.fired = append(o.fired, f.String())
		if f.Mode == ModeKill {
			o.killed = true
		}
		return f.Mode == ModeShort, fmt.Errorf("%w: %s", ErrInjected, f)
	}
	return false, nil
}

func (o *ScheduledOps) Create(name string) (store.SegFile, error) {
	if _, err := o.step(OpSegCreate); err != nil {
		return nil, err
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return &scheduledSeg{ops: o, File: f}, nil
}

func (o *ScheduledOps) Rename(oldpath, newpath string) error {
	if _, err := o.step(OpRename); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (o *ScheduledOps) Remove(name string) error {
	if _, err := o.step(OpRemove); err != nil {
		return err
	}
	return os.Remove(name)
}

func (o *ScheduledOps) OpenWAL(name string) (store.WALFile, error) {
	// Opening is a read-side act (replay); it always passes so a revived
	// process can recover whatever the dead one persisted.
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &scheduledWAL{ops: o, File: f}, nil
}

type scheduledSeg struct {
	ops *ScheduledOps
	*os.File
}

func (s *scheduledSeg) Write(p []byte) (int, error) {
	short, err := s.ops.step(OpSegWrite)
	if err != nil {
		if short && len(p) > 1 {
			n, _ := s.File.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return s.File.Write(p)
}

func (s *scheduledSeg) Sync() error {
	if _, err := s.ops.step(OpSegSync); err != nil {
		return err
	}
	return s.File.Sync()
}

type scheduledWAL struct {
	ops *ScheduledOps
	*os.File
}

func (w *scheduledWAL) Write(p []byte) (int, error) {
	short, err := w.ops.step(OpWALWrite)
	if err != nil {
		if short && len(p) > 1 {
			n, _ := w.File.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return w.File.Write(p)
}

func (w *scheduledWAL) Sync() error {
	if _, err := w.ops.step(OpWALSync); err != nil {
		return err
	}
	return w.File.Sync()
}

// PlanString renders a fault plan compactly for logs.
func PlanString(plan []Fault) string {
	parts := make([]string, len(plan))
	for i, f := range plan {
		parts[i] = f.String()
	}
	return strings.Join(parts, " ")
}
