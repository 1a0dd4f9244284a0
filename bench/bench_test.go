package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tests that boot serving stacks and drive load through them run only
// under `go test ./bench -load`. They keep two CPUs and the disk busy for
// ten seconds, and `go test ./...` runs packages side by side: with them in,
// fifteen tier-1 runs on the 2-CPU sandbox failed six times, in three
// timing-sensitive tests of internal/server and internal/scalebench, against
// four times in one test without them. Without the flag tier-1 still
// compiles and vets the harness against the APIs it stands on and runs the
// tests that need no stack.
var load = flag.Bool("load", false, "also run the tests that boot serving stacks and drive load through them (~10 s)")

func needsLoad(t *testing.T) {
	t.Helper()
	if !*load {
		t.Skip("boots serving stacks and saturates the host; run with: go test ./bench -load")
	}
}

func smokeConfig(t *testing.T, seed uint64) *config {
	t.Helper()
	return &config{
		seed:      seed,
		measure:   time.Second,
		warm:      200 * time.Millisecond,
		scale:     16,
		trace:     true,
		setupReps: 1,
		lanes:     2,
		outDir:    t.TempDir(),
		logf:      t.Logf,
	}
}

var smoke struct {
	once    sync.Once
	results map[string]*runResult
	err     error
}

// smokeResults runs the four workloads once, traced, at smoke scale, and
// shares the outcome between the tests that inspect it.
func smokeResults(t *testing.T) map[string]*runResult {
	t.Helper()
	needsLoad(t)
	smoke.once.Do(func() {
		cfg := smokeConfig(t, 11)
		smoke.results = make(map[string]*runResult)
		for _, name := range workloadNames {
			res, err := runWorkload(cfg, name)
			if err != nil {
				smoke.err = err
				return
			}
			smoke.results[name] = res
		}
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.results
}

// TestSpecMatchesBenchmarkJSON keeps spec.go and the driver's description of
// the benchmark from drifting apart.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d] = %+v, spec.go has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound presence wrong", kind, d.Name)
			}
			if bounded && g.Bound != nil && *g.Bound != d.Bound {
				t.Errorf("%s %s: bound %v, spec.go has %v", kind, d.Name, *g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

func TestSmoke(t *testing.T) {
	start := time.Now()
	results := smokeResults(t)
	t.Logf("four traced smoke workloads took %v", time.Since(start))

	sampled := make(map[string]bool)
	for _, name := range workloadNames {
		res := results[name]
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		if got := res.Metrics["failed_share"].Value; got != 0 {
			t.Errorf("%s: failed_share = %v", name, got)
		}
		cfg := smokeConfig(t, res.Seed)
		if want := fingerprint(cfg, name, shapes[name].scaled(cfg.scale)); res.Fingerprint != want {
			t.Errorf("%s: run reports fingerprint %s, its generators yield %s", name, res.Fingerprint, want)
		}
		var table bytes.Buffer
		printTable(&table, res)
		fields := strings.Fields(table.String())
		for _, group := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range group {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or unit %q, want %q", name, d.Name, m.Unit, d.Unit)
				}
				if m.Samples > 0 {
					sampled[d.Name] = true
				}
				n := 0
				for _, f := range fields {
					if f == d.Name {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s: metric %s printed %d times, want once", name, d.Name, n)
				}
			}
		}
		for _, d := range endToEnd {
			if m := res.Metrics[d.Name]; m.Samples == 0 || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v over %d samples; must never be zero", name, d.Name, m.Value, m.Samples)
			}
		}
		if len(res.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics reported, spec has %d", name, len(res.Metrics), len(endToEnd)+len(perLayer))
		}
	}
	for _, d := range perLayer {
		if !sampled[d.Name] {
			t.Errorf("per-layer metric %s has no samples on any workload", d.Name)
		}
	}

	// The JSON document round-trips.
	doc := report{Runs: []*runResult{results[wlIngestStream], results[wlReadHot]}}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if len(back.Runs) != 2 || back.Runs[0].Metrics["requests_per_s"].Value != results[wlIngestStream].Metrics["requests_per_s"].Value {
		t.Error("report lost values in the round trip")
	}
}

func TestFingerprints(t *testing.T) {
	cfg, other := smokeConfig(t, 11), smokeConfig(t, 12)
	for _, name := range workloadNames {
		sh := shapes[name].scaled(cfg.scale)
		first, again := fingerprint(cfg, name, sh), fingerprint(cfg, name, sh)
		if again != first {
			t.Errorf("%s: same seed, fingerprints %s and %s", name, first, again)
		}
		if fingerprint(other, name, sh) == first {
			t.Errorf("%s: seeds 11 and 12 share fingerprint %s", name, first)
		}
	}
}

// resultLine is the driver's contract for the last line of standard output.
type resultLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  *string  `json:"unit"`
	} `json:"metrics"`
}

// contractRun runs one workload the way the driver does, at smoke scale, and
// checks the result line's shape: exactly the contract's keys, and exactly
// the metrics of defs, each with its unit.
func contractRun(t *testing.T, defs []metricDef, args ...string) (int, resultLine) {
	t.Helper()
	needsLoad(t)
	var out, errOut bytes.Buffer
	code := run(append([]string{"-smoke", "-out", t.TempDir()}, args...), &out, &errOut)
	line := lastLine(out.String())
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("exit %d, result line %q: %v\n%s", code, line, err, errOut.String())
	}
	if res.Correct == nil || res.Failed == nil || res.Attempted == nil || *res.Attempted < 1 {
		t.Errorf("result line lacks correct, attempted or failed: %s", line)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; !ok || m.Value == nil || m.Unit == nil || *m.Unit != d.Unit {
			t.Errorf("result: metric %s missing or mis-united", d.Name)
		}
	}
	return code, res
}

// TestExactCountsRepeat: at concurrency 1 the traced pass's counts are a
// property of the seed, not of the run. The second run goes through the
// driver's entry point, so this is also the honest traced contract run.
func TestExactCountsRepeat(t *testing.T) {
	first := smokeResults(t)[wlSessionMix]
	code, second := contractRun(t, perLayer, "-workload", wlSessionMix, "-seed", "11", "-trace", "1")
	if code != 0 || !*second.Correct || *second.Failed != 0 {
		t.Fatalf("honest traced run: exit %d, correct=%v failed=%d", code, *second.Correct, *second.Failed)
	}
	for _, name := range []string{
		"file.wal_writes_per_wave", "file.wal_bytes_per_wave", "store.syncs_per_wave",
		"store.wal_bytes_per_payload_byte", "wire.req_bytes_per_event", "wire.decode_req_allocs",
	} {
		a, b := first.Metrics[name], *second.Metrics[name].Value
		if a.Samples == 0 || a.Value != b {
			t.Errorf("%s: %v over %d samples, then %v", name, a.Value, a.Samples, b)
		}
	}
}

// TestCorruptExpectedAnswerExitsNonZero: a failing correctness check must
// reach the result line and the exit code. -sabotage corrupts one expected
// profile; everything else about the untraced run is as the driver sees it.
func TestCorruptExpectedAnswerExitsNonZero(t *testing.T) {
	code, res := contractRun(t, endToEnd, "-workload", wlReadHot, "-trace", "0", "-sabotage")
	if code == 0 {
		t.Error("run with a corrupted expectation exited 0")
	}
	if *res.Correct || *res.Failed == 0 {
		t.Errorf("sabotaged result says correct=%v failed=%d", *res.Correct, *res.Failed)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.Name]; m.Value != nil && *m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v; must never be zero", d.Name, *m.Value)
		}
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(tput ...float64) *report {
		doc := &report{}
		for _, v := range tput {
			ms := metricSet{}
			ms.set("requests_per_s", v, 1000)
			ms.set("latency_p50_ms", 2, 1000)
			ms.set("failed_share", 0, 20000)
			doc.Runs = append(doc.Runs, &runResult{Workload: wlReadHot, Correct: true, Attempted: 20000, Metrics: ms})
		}
		return doc
	}
	// Every number as good as the base's, but one run of the three answered
	// wrongly once: the median failed_share is still zero.
	wrong := mk(1005, 995, 1000)
	wrong.Runs[1].Correct, wrong.Runs[1].Failed = false, 1
	wrong.Runs[1].Metrics.set("failed_share", 1.0/20000, 20000)

	base := mk(1000, 1010, 990)
	for _, tc := range []struct {
		name   string
		b      *report
		code   int
		metric string
		want   string
	}{
		{"same", mk(1005, 995, 1000), 0, "requests_per_s", "ok"},
		{"same", mk(1005, 995, 1000), 0, "failed_share", "ok"},
		{"slower", mk(700, 710, 690), 1, "requests_per_s", "regressed"},
		{"noisy", mk(600, 1000, 1400), 0, "requests_per_s", "unresolved"},
		{"wrong answer", wrong, 1, "failed_share", "regressed"},
		{"wrong answer", wrong, 1, "requests_per_s", "ok"},
	} {
		var out bytes.Buffer
		if code := compareReports(&out, base, tc.b); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		var row string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, " "+tc.metric+" ") {
				row = l
			}
		}
		if !strings.HasSuffix(row, tc.want) {
			t.Errorf("%s: %s row %q, want verdict %s", tc.name, tc.metric, row, tc.want)
		}
	}
}
