package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// -compare A.json B.json: one row per (metric, workload) with both medians,
// the ratio with its base, and a verdict against the metric's bound. Each
// file is a report document and may hold several runs of a workload
// (bench -runs N); a verdict needs the runs to agree with themselves first.

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4)
// gives them (the exclusive method), which is how the driver measures
// spread. Fewer than two values have no spread: all three are the value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	s := (q3 - q1) / q2
	if s < 0 {
		s = -s
	}
	return s
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc report
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// valuesOf groups a report's values by workload then metric.
func valuesOf(doc *report) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range doc.Runs {
		m := out[r.Workload]
		if m == nil {
			m = make(map[string][]float64)
			out[r.Workload] = m
		}
		for name, v := range r.Metrics {
			if v.Samples > 0 {
				m[name] = append(m[name], v.Value)
			}
		}
	}
	return out
}

// anyFailed reports whether any of a workload's runs had a failed request, a
// failed check or a wrong answer.
func anyFailed(doc *report, workload string) bool {
	for _, r := range doc.Runs {
		if r.Workload == workload && (!r.Correct || r.Failed > 0) {
			return true
		}
	}
	return false
}

// verdict judges b against the base a. failed_share's bound is an absolute
// zero: it is regressed when any of b's runs failed anything (bFailed),
// whatever the medians say and whatever a did.
func verdict(d metricDef, a, b []float64, bFailed bool) string {
	if d.Name == "failed_share" {
		if bFailed {
			return "regressed"
		}
		return "ok"
	}
	if d.Bound <= 0 {
		return "info"
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return "unresolved"
	}
	ma, mb := medianFloat(a), medianFloat(b)
	worse := mb > ma*(1+d.Bound)
	if d.Better == "higher" {
		worse = mb < ma*(1-d.Bound)
	}
	if worse {
		return "regressed"
	}
	return "ok"
}

func compareFiles(w, stderr io.Writer, pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err == nil {
		var b *report
		if b, err = loadReport(pathB); err == nil {
			return compareReports(w, a, b)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareReports(w io.Writer, a, b *report) int {
	va, vb := valuesOf(a), valuesOf(b)
	regressed := 0
	fmt.Fprintf(w, "%-16s %-36s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "B/A", "A iqr", "B iqr", "verdict")
	for _, wl := range workloadNames {
		bFailed := anyFailed(b, wl)
		for _, group := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range group {
				xa, xb := va[wl][d.Name], vb[wl][d.Name]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				v := verdict(d, xa, xb, bFailed)
				if v == "regressed" {
					regressed++
				}
				ma, mb := medianFloat(xa), medianFloat(xb)
				fmt.Fprintf(w, "%-16s %-36s %14.4f %14.4f %9.4f %7.1f%% %7.1f%%  %s\n",
					wl, d.Name, ma, mb, ratio(mb, ma), spread(xa)*100, spread(xb)*100, v)
			}
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
