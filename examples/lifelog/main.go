// Lifelog demonstrates the raw-stream substrate: generating a synthetic
// WebLog for a small population, persisting it to the segmented binary log,
// reading it back, sessionizing it, and extracting the per-user subjective
// feature digests the Attributes Manager consumes — the full LifeLogs
// Pre-processor path, including the self-replicating agent pool.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/agents"
	"repro/internal/lifelog"
	"repro/internal/synth"
)

func main() {
	dir, err := os.MkdirTemp("", "spa-lifelog")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Generate four weeks of browsing for 500 users and persist it.
	pop, err := synth.Generate(synth.DefaultConfig(500, 42))
	if err != nil {
		log.Fatal(err)
	}
	w, err := lifelog.NewWriter(dir, 256<<10) // small segments to show rolling
	if err != nil {
		log.Fatal(err)
	}
	cfg := synth.WebLogConfig{Weeks: 4, Seed: 1, TransactionBias: 0.35}
	if err := pop.GenerateWebLogs(cfg, w.Append); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d events\n", w.Count())

	// 2. Read back through the elastic pre-processor pool (the paper's
	//    self-replicating LifeLogs Pre-processor Agent).
	var mu sync.Mutex
	perType := map[lifelog.EventType]int{}
	pool, err := agents.NewPool(agents.PoolConfig{Min: 1, Max: 8, QueueCap: 1024, ScaleAt: 8},
		func(m agents.Message) error {
			e := m.Payload.(lifelog.Event)
			mu.Lock()
			perType[e.Type]++
			mu.Unlock()
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	events, err := lifelog.ReadAll(dir)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range events {
		if err := pool.Submit(agents.Message{Topic: "lifelog.raw", Payload: e}); err != nil {
			log.Fatal(err)
		}
	}
	processed, failures := pool.Stop()
	fmt.Printf("pool processed %d events (%d failures), peak workers %d\n\n",
		processed, failures, pool.PeakWorkers())

	fmt.Println("event mix:")
	for t := lifelog.EventType(0); t < 10; t++ {
		if perType[t] > 0 {
			fmt.Printf("  %-14s %6d\n", t, perType[t])
		}
	}

	// 3. Sessionize + extract subjective features.
	x := lifelog.NewExtractor(30*time.Minute, events[len(events)-1].Time.Add(24*time.Hour))
	for _, e := range events {
		if err := x.Feed(e); err != nil {
			log.Fatal(err)
		}
	}
	features := x.Finish()

	// Show the five most active users' digests.
	sort.SliceStable(features, func(i, j int) bool { return features[i].Events > features[j].Events })
	fmt.Println("\ntop-5 most active users:")
	fmt.Println("  user   events  sessions  transactions  mean-sess-min")
	for _, fv := range features[:5] {
		fmt.Printf("  %4d   %6d  %8d  %12d  %13.1f\n",
			fv.UserID, fv.Events, fv.Sessions, fv.Transactions, fv.MeanSessionMinutes)
	}
}
