package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/wire"
)

// quantile returns the q-quantile of sorted by nearest rank; zero when
// empty.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianInt64 is the middle value (upper middle for even counts, so integer
// counts stay integers).
func medianInt64(v []int64) int64 { return quantile(sortedCopy(v), 0.5) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }
func nsToUs(ns int64) float64 { return float64(ns) / 1e3 }

// procCounters is one reading of the process-wide cost counters the
// end-to-end metrics difference across the measured window.
type procCounters struct {
	at         time.Time
	cpuNanos   int64 // user+sys, getrusage(RUSAGE_SELF)
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	gcCPUSecs  float64
}

func readProc() procCounters {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	pc := procCounters{
		at:         time.Now(),
		cpuNanos:   ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		pc.gcCPUSecs = gc[0].Value.Float64()
	}
	return pc
}

// liveHeapMiB forces a collection and reports HeapInuse.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// mallocsNow reads the cumulative heap allocation count; the traced pass
// differences it around single calls at concurrency 1.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// histDelta subtracts two scrapes of one /metrics histogram.
func histDelta(after, before wire.Histogram) wire.Histogram {
	d := wire.Histogram{Count: after.Count - before.Count, SumNanos: after.SumNanos - before.SumNanos}
	d.Counts = make([]uint64, len(after.Counts))
	for i, c := range after.Counts {
		if i < len(before.Counts) {
			c -= before.Counts[i]
		}
		d.Counts[i] = c
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
