// Package scalebench holds the client-side workloads behind spabench and
// the root benchmarks: fixed-size multi-user event bursts over disjoint
// user ranges, pushed through the in-process facade with a worker pool
// (MakeBursts + RunWorkers, for BenchmarkShardedIngest), and the zipf +
// diurnal scenario replay of the [S9] cluster section (RunScenario,
// scenario.go). The end-to-end serving benchmark is bench/, which
// generates its own traffic; the built daemon is exercised end to end by
// cmd/spad's -e2e test.
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
	base := clock.Epoch.Add(-24 * time.Hour)
	bursts := make([][]lifelog.Event, Users/BurstSize)
	for g := range bursts {
		for u := 0; u < BurstSize; u++ {
			id := uint64(g*BurstSize + u + 1)
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
