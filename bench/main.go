// Command bench is the SPA serving benchmark: it boots the serving stack
// in-process the way `spad -data D -sync -pipeline` does, drives it through
// internal/spaclient over loopback sockets with four named closed-loop
// workloads, checks the answers, and prints every metric of spec.go by name
// with its unit, sample count and bound — as a table and as one JSON
// document. See README.md for what each workload and metric is for.
//
// Usage:
//
//	bench [-seed 11] [-seconds 20] [-runs 1] [-trace] [-json FILE]   all four workloads
//	bench -workload NAME -seed N -seconds S -trace 0|1               one run, one result line (the driver's contract)
//	bench -smoke                                                       1 s windows, populations / 16, traced
//	bench -compare A.json B.json                                       judge B against A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// foldTraceValue rewrites "-trace 0|1" (the driver's spelling) into
// "-trace=0|1": -trace is a boolean flag, and Go's flag package would
// otherwise take the value for the first positional argument.
func foldTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 11, "derives all traffic")
		seconds  = fs.Float64("seconds", 20, "measured window per workload, in seconds (warm-up is a sixth of it on top)")
		workload = fs.String("workload", "", "run this one workload and print one result line")
		trace    = fs.Bool("trace", false, "also run the traced pass and write <out>/<workload>.trace.jsonl")
		smoke    = fs.Bool("smoke", false, "1 s windows, populations / 16, traced: a quick truthfulness check")
		runs     = fs.Int("runs", 1, "repeat every workload this many times into one report")
		jsonOut  = fs.String("json", "", "also write the JSON document to this file")
		outDir   = fs.String("out", defaultOutDir(), "directory for trace files and scratch data")
		compare  = fs.Bool("compare", false, "compare two JSON documents: -compare A.json B.json")
		sabotage = fs.Bool("sabotage", false, "corrupt one expected answer, to show that a failing check exits non-zero")
	)
	if err := fs.Parse(foldTraceValue(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files: A.json B.json")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	cfg := &config{
		seed:      *seed,
		measure:   time.Duration(*seconds * float64(time.Second)),
		scale:     1,
		trace:     *trace,
		setupReps: setupReps,
		lanes:     min(2, runtime.NumCPU()),
		outDir:    *outDir,
		logf:      func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) },
		sabotage:  *sabotage,
	}
	if cfg.measure <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if *smoke {
		cfg.measure, cfg.scale, cfg.setupReps = time.Second, 16, 1
		traceSet := false
		fs.Visit(func(f *flag.Flag) { traceSet = traceSet || f.Name == "trace" })
		if !traceSet {
			cfg.trace = true
		}
	}
	cfg.warm = max(cfg.measure/6, 200*time.Millisecond)
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *workload != "" {
		return runContract(cfg, *workload, stdout, stderr)
	}

	doc := report{Host: readHost(cfg)}
	fmt.Fprintln(stdout, doc.Host)
	ok := true
	for r := 0; r < *runs; r++ {
		for _, name := range workloadNames {
			res, err := runWorkload(cfg, name)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			ok = ok && res.Correct
			doc.Runs = append(doc.Runs, res)
			printTable(stdout, res)
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: a correctness check failed")
		return 1
	}
	return 0
}

// runContract is the driver's shape: one workload, one JSON result as the
// last line of standard output — the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one. Everything else goes to
// standard error.
func runContract(cfg *config, name string, stdout, stderr io.Writer) int {
	if cfg.trace {
		cfg.setupReps = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	res, err := runWorkload(cfg, name)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	printTable(stderr, res)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		out.Metrics[d.Name] = value{m.Value, m.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultOutDir is bench/out seen from the repository root, or out seen
// from inside bench/.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}
