// Command figure1 regenerates the paper's Figure 1: the speedup of DFIFO,
// RGP+LAS and EP over the LAS baseline for the eight benchmarks on the
// simulated Atos bullion S16 (8 sockets x 4 cores), plus the geometric mean.
//
// Each (workload, machine) task graph is built once per run and shared
// across the policy/seed cells via the experiment's TDG cache, so multi-seed
// sweeps pay generator cost once. -apps accepts workload registry specs, so
// the figure can be regenerated over synthetic or imported DAGs too. The
// whole grid runs in one process: its 96 cells at paper scale take 1–1.5 s
// on two cores.
//
// Usage:
//
//	figure1                      # paper scale, 3 seeds
//	figure1 -scale small -seeds 2
//	figure1 -bars                # ASCII bar chart like the paper's figure
//	figure1 -jsonl cells.jsonl   # stream per-cell results while running
//	figure1 -csv fig1.csv        # also write the table as CSV
//	figure1 -trace cells.json    # Chrome trace of every grid cell (Perfetto)
//	figure1 -apps "jacobi,forkjoin?depth=8&fanout=3" -scale small
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"numadag/internal/cliutil"
	"numadag/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes figure1 with the given arguments and returns its exit code:
// 0 on success, 1 when the grid or an output fails, and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("figure1", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = cliutil.ScaleFlag(fs, "paper")
		seeds    = cliutil.SeedsFlag(fs, 3)
		bars     = fs.Bool("bars", false, "render ASCII bars instead of a table")
		csvF     = fs.String("csv", "", "also write the table as CSV to this file")
		outputs  = cliutil.BindOutputs(fs, false)
		wsize    = fs.Int("window", 0, "override window size (0 = default 2048)")
		appsF    = cliutil.AppsFlag(fs, "comma-separated workload specs (default: the eight paper benchmarks)")
		traceOut = cliutil.BindTrace(fs)
		cpuProf  = cliutil.BindCPUProfile(fs)
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "figure1:", err)
		return 1
	}
	if err := cpuProf.Start(); err != nil {
		return fail(err)
	}
	defer func() {
		if err := cpuProf.Stop(); err != nil && code == 0 {
			code = fail(err)
		}
	}()

	sc, err := scale()
	if err != nil {
		return fail(err)
	}
	opt := core.DefaultFigure1Options()
	opt.Scale = sc
	opt.Seeds = *seeds
	if *wsize > 0 {
		opt.Runtime.WindowSize = *wsize
	}
	if apps := appsF(); apps != nil {
		opt.Apps = apps
	}
	opt.Trace = traceOut.Enable(false)

	table := core.Figure1Table(opt)
	sinks, err := outputs.Sinks()
	if err != nil {
		return fail(err)
	}
	err = core.Figure1Experiment(opt).Run(context.Background(), append([]core.Sink{table}, sinks...)...)
	if cerr := outputs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	if err := traceOut.Write(); err != nil {
		return fail(err)
	}
	if *csvF != "" {
		if err := writeCSV(*csvF, table); err != nil {
			return fail(err)
		}
	}
	if *bars {
		err = table.Table().WriteBars(stdout, 48)
	} else {
		err = table.Table().Write(stdout)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, "\npaper reference (speedup over LAS):")
	sep := ""
	for _, v := range core.Figure1Paper {
		fmt.Fprintf(stdout, "%s %s %s %.2f", sep, v.App, v.Policy, v.Speedup)
		sep = ","
	}
	fmt.Fprintln(stdout)
	return 0
}

// writeCSV writes the aggregated table as CSV to path.
func writeCSV(path string, table *core.TableSink) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := table.Table().WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
