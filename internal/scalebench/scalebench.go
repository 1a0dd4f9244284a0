// Package scalebench is the shared workload harness behind
// BenchmarkShardedIngest and spabench's scale sections, so every consumer
// measures the exact same ingest shape: fixed-size multi-user event bursts
// over disjoint user ranges. BenchmarkShardedIngest pushes the bursts
// through the in-process facade with a worker pool (RunWorkers); [S3], [S5]
// and spabench -loadgen push them through a live spad daemon over the wire
// with concurrent clients (RunLoadgen, loadgen.go). Keeping the workload in
// one place means a change to it (burst sizing, event mix) cannot silently
// diverge between the benchmark, the CLI table, and the load generator.
package scalebench

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/lifelog"
)

// Workload shape shared by the benchmark and spabench. 8 workers ingesting
// 64-user bursts of 4 events each over a 512-user population.
const (
	Workers   = 8
	Users     = 512
	BurstSize = 64 // users per ingest call
	PerUser   = 4  // events per user per burst
)

// EventsPerBurst is the number of events one ingest call carries.
const EventsPerBurst = BurstSize * PerUser

// MakeBursts builds the canonical burst set: Users/BurstSize bursts, each
// covering a disjoint user range with per-user ascending timestamps.
func MakeBursts() [][]lifelog.Event {
	return MakeBurstsFor(0)
}

// MakeBurstsFor builds the canonical burst set over a shifted user range
// [offset+1, offset+Users]. The loadgen gives every concurrent client
// its own offset, so clients never interleave events of a shared user and
// per-user order is preserved no matter how their requests coalesce.
func MakeBurstsFor(offset uint64) [][]lifelog.Event {
	return MakeBurstsSized(offset, BurstSize)
}

// MakeBurstsSized is MakeBurstsFor with a custom burst width: Users is
// split into Users/usersPerBurst bursts of usersPerBurst users × PerUser
// events. The serving benchmark uses narrow bursts — a network request
// carries one device's recent events, not a 64-user mega-batch; the wide
// shape stays the in-process default.
func MakeBurstsSized(offset uint64, usersPerBurst int) [][]lifelog.Event {
	return MakeBurstsSpan(offset, Users, usersPerBurst)
}

// MakeBurstsSpan is MakeBurstsSized over a custom population width: span
// users from offset+1, split into span/usersPerBurst bursts. The streamed
// loadgen splits one client's Users-wide range into per-lane sub-ranges,
// so a transport comparison holds the total population fixed while the
// lane count varies.
func MakeBurstsSpan(offset uint64, span, usersPerBurst int) [][]lifelog.Event {
	if span <= 0 || span > Users {
		span = Users
	}
	if usersPerBurst <= 0 || usersPerBurst > span {
		usersPerBurst = min(BurstSize, span)
	}
	base := clock.Epoch.Add(-24 * time.Hour)
	bursts := make([][]lifelog.Event, span/usersPerBurst)
	for g := range bursts {
		for u := 0; u < usersPerBurst; u++ {
			id := offset + uint64(g*usersPerBurst+u+1)
			for i := 0; i < PerUser; i++ {
				bursts[g] = append(bursts[g], lifelog.Event{
					UserID: id,
					Time:   base.Add(time.Duration(i) * time.Second),
					Type:   lifelog.EventClick,
					Action: uint32((int(id)*PerUser + i) % lifelog.ActionUniverse),
				})
			}
		}
	}
	return bursts
}

// RunWorkers drives n ops through the worker pool: op i is fn(i), ops are
// handed out via a shared counter. The first error stops nothing but is
// returned once every worker has drained.
func RunWorkers(n int64, fn func(i int64) error) error {
	var (
		mu       sync.Mutex
		firstErr error
		next     int64
	)
	var wg sync.WaitGroup
	for w := 0; w < Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}
