package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type orchestration struct {
	runs      int
	seed      uint64
	seconds   float64
	trace     bool
	prof, out string
	summary   string
}

// childRun is what the orchestrator reads back from one child process.
type childRun struct {
	digest string
	line   resultLine
}

// summaryStat is one workload x metric aggregate over runs.
type summaryStat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
}

type workloadSummary struct {
	Why     string                 `json:"why"`
	Digest  string                 `json:"digest"`
	Metrics map[string]summaryStat `json:"metrics"`
	Layers  map[string]metric      `json:"per_layer,omitempty"`
}

type summary struct {
	Env       env                        `json:"env"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

// orchestrate runs every workload o.runs times, round-robin so
// host-speed drift spreads over all workloads, each run in a fresh child
// process (per-run peak RSS, cold pools). With o.trace it adds one traced
// run per workload. It checks that every run passed and that each
// workload's digest is the same in every run, traced or not.
func orchestrate(o orchestration, stdout, stderr io.Writer) int {
	ds := defs
	if o.runs < 1 {
		fmt.Fprintln(stderr, "benchmark: --runs must be >= 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	results := make(map[string][]childRun)
	traced := make(map[string]childRun)
	failed := false
	spawn := func(d def, trace bool) (childRun, bool) {
		args := []string{"--workload", d.name, "--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--out", o.out, "--trace", "0"}
		if trace {
			args[len(args)-1] = "1"
			if o.prof != "" {
				args = append(args, "--cpuprofile", o.prof)
			}
		}
		fmt.Fprintf(stderr, "benchmark: %s trace=%t\n", d.name, trace)
		cr, err := child(exe, args, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", d.name, err)
			failed = true
			return cr, false
		}
		return cr, true
	}
	for r := 0; r < o.runs; r++ {
		for _, d := range ds {
			if cr, ok := spawn(d, false); ok {
				results[d.name] = append(results[d.name], cr)
			}
		}
	}
	if o.trace {
		for _, d := range ds {
			if cr, ok := spawn(d, true); ok {
				traced[d.name] = cr
			}
		}
	}

	sum := summary{Env: hostEnv(), Seed: o.seed, Seconds: o.seconds, Runs: o.runs,
		Workloads: make(map[string]workloadSummary)}
	for _, d := range ds {
		ws := workloadSummary{Why: d.why, Metrics: make(map[string]summaryStat)}
		crs := results[d.name]
		for i, cr := range crs {
			if i == 0 {
				ws.Digest = cr.digest
			} else if cr.digest != ws.Digest {
				fmt.Fprintf(stderr, "benchmark: FAIL: %s digest %s in run %d, %s in run 1\n", d.name, cr.digest, i+1, ws.Digest)
				failed = true
			}
		}
		if cr, ok := traced[d.name]; ok {
			if len(crs) > 0 && cr.digest != ws.Digest {
				fmt.Fprintf(stderr, "benchmark: FAIL: %s traced digest %s, untraced %s\n", d.name, cr.digest, ws.Digest)
				failed = true
			}
			ws.Layers = cr.line.Metrics
		}
		values := make(map[string][]float64)
		units := make(map[string]string)
		for _, cr := range crs {
			for n, m := range cr.line.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		for n, vs := range values {
			q1, q2, q3 := quartiles(vs)
			ws.Metrics[n] = summaryStat{Unit: units[n], Median: q2, Q1: q1, Q3: q3, Runs: len(vs)}
		}
		sum.Workloads[d.name] = ws
	}
	printSummary(stdout, ds, sum)
	path := o.summary
	if path == "" {
		path = filepath.Join(o.out, "summary.json")
	}
	if err := writeJSON(path, sum); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// child runs one measurement in a fresh process and parses its digest line
// and its final JSON line. A child that exits non-zero or reports
// correct=false is an error.
func child(exe string, args []string, stderr io.Writer) (childRun, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var cr childRun
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "digest "); ok {
			cr.digest = d
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if runErr != nil {
		return cr, fmt.Errorf("child %v: %w", args, runErr)
	}
	if err := json.Unmarshal([]byte(last), &cr.line); err != nil {
		return cr, fmt.Errorf("child %v: last line: %w", args, err)
	}
	if !cr.line.Correct || cr.line.Failed != 0 {
		return cr, fmt.Errorf("child %v reported correct=%t failed=%d", args, cr.line.Correct, cr.line.Failed)
	}
	return cr, nil
}

func printSummary(w io.Writer, ds []def, sum summary) {
	fmt.Fprintf(w, "seed %d, %g s per run, %d runs per workload, %s, nproc %d, GOMAXPROCS %d, %d workers\n",
		sum.Seed, sum.Seconds, sum.Runs, sum.Env.GoVersion, sum.Env.NumCPU, sum.Env.GOMAXPROCS, sum.Env.Workers)
	for _, d := range ds {
		ws := sum.Workloads[d.name]
		fmt.Fprintf(w, "\n%s (digest %s): %s\n", d.name, ws.Digest, d.why)
		fmt.Fprintf(w, "  %-28s %14s %14s %14s %8s  %s\n", "metric", "median", "q1", "q3", "iqr/med", "unit")
		for _, n := range sortedKeys(ws.Metrics) {
			s := ws.Metrics[n]
			spread := 0.0
			if s.Median != 0 {
				spread = (s.Q3 - s.Q1) / s.Median
			}
			fmt.Fprintf(w, "  %-28s %14.6g %14.6g %14.6g %7.2f%%  %s (n=%d)\n", n, s.Median, s.Q1, s.Q3, 100*spread, s.Unit, s.Runs)
		}
		if len(ws.Layers) > 0 {
			fmt.Fprintf(w, "  per layer (traced run):\n")
			for _, n := range sortedKeys(ws.Layers) {
				m := ws.Layers[n]
				fmt.Fprintf(w, "    %-30s %14.6g %s\n", n, m.Value, m.Unit)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
