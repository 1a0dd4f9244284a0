package main

import (
	"fmt"
	"io"
	"strings"
)

// report is the JSON document: provenance plus every run.
type report struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

// printTable prints one run: every metric by name with its value, unit,
// sample count and (where it has one) bound. Metrics the workload does not
// exercise (or that need the traced pass, on an untraced run) are named on
// one closing line instead of a row of zeros each.
func printTable(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "\n== %s  seed=%d fingerprint=%s correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Fingerprint, res.Correct, res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   ! %s\n", n)
	}
	row := func(d metricDef) {
		m := res.Metrics[d.Name]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("bound %g%% (%s is better)", d.Bound*100, d.Better)
		}
		fmt.Fprintf(w, "   %-36s %14.4f %-8s n=%-8d %s\n", d.Name, m.Value, m.Unit, m.Samples, bound)
	}
	fmt.Fprintln(w, "  end-to-end")
	for _, d := range endToEnd {
		row(d)
	}
	fmt.Fprintln(w, "  per-layer (file latencies are this sandbox's page cache, not a device's)")
	var idle []string
	for _, d := range perLayer {
		if res.Metrics[d.Name].Samples == 0 {
			idle = append(idle, d.Name)
			continue
		}
		row(d)
	}
	if len(idle) > 0 {
		fmt.Fprintf(w, "  not exercised here: %s\n", strings.Join(idle, " "))
	}
}
