// Command benchmark measures numadag end to end on four named workloads and
// attributes each workload's host time to the program's layers.
//
// One run measures one workload in this process:
//
//	go run . --workload fig1-paper --seed 1 --seconds 10 --trace 0
//
// It builds its inputs from the seed, sets up (resolving and snapshotting
// every distinct spec, repeatedly), runs one reference round, then measures
// rounds for the given seconds. Every round must reproduce the reference
// round's simulated digest. It prints the metrics by name and unit, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
//
// Without --workload it orchestrates: every workload, --runs times,
// round-robin, each run in a fresh child process of this binary, then one
// traced run per workload with --trace 1, and prints medians and quartiles.
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "measure this workload in this process (empty: orchestrate all workloads in child processes)")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "seconds of measured rounds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	runs := fs.Int("runs", 5, "orchestrator: untraced runs per workload")
	prof := fs.String("cpuprofile", "", "directory to write one CPU profile per workload from the traced run, labelled by layer")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for per-run result files")
	summary := fs.String("summary", "", "orchestrator: also write the median/quartile summary to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "benchmark: --seconds must be >= 0\n")
		return 2
	}
	if *name == "" {
		return orchestrate(orchestration{
			runs: *runs, seed: *seed, seconds: *seconds, trace: *trace == 1,
			prof: *prof, out: *out, summary: *summary,
		}, stdout, stderr)
	}
	d, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	rep, err := runOne(d, d.full, *seed, *seconds, *trace == 1, *prof)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d-%d.json",
		d.name, *seed, *trace, time.Now().UnixNano())), rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(stderr, "benchmark: FAIL:", p)
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printReport writes the metrics one per line, the digest, and the result
// as one JSON line last.
func printReport(w io.Writer, rep *report) error {
	fmt.Fprintf(w, "workload %s seed %d trace %t: %d rounds of %d runs, %s, nproc %d, GOMAXPROCS %d, %d workers\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Rounds, rep.RunsRound, rep.Env.GoVersion,
		rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.Workers)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "digest %s\n", rep.Digest)
	line, err := json.Marshal(resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
