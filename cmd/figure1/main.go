// Command figure1 regenerates the paper's Figure 1: the speedup of DFIFO,
// RGP+LAS and EP over the LAS baseline for the eight benchmarks on the
// simulated Atos bullion S16 (8 sockets x 4 cores), plus the geometric mean.
//
// Each (workload, machine) task graph is built once per run and shared
// across the policy/seed cells via the experiment's TDG cache, so multi-seed
// sweeps pay generator cost once. -apps accepts workload registry specs, so
// the figure can be regenerated over synthetic or imported DAGs too.
//
// The figure grid shards, checkpoints and resumes exactly like cmd/sweep:
// -shard i/n runs a slice into a journal under -out, -resume continues an
// interrupted run, -merge recombines shard journals into the (byte
// identical) figure.
//
// Usage:
//
//	figure1                      # paper scale, 3 seeds (a few minutes)
//	figure1 -scale small -seeds 2
//	figure1 -bars                # ASCII bar chart like the paper's figure
//	figure1 -jsonl cells.jsonl   # stream per-cell results while running
//	figure1 -trace cells.json    # Chrome trace of every grid cell (Perfetto)
//	figure1 -apps "jacobi,forkjoin?depth=8&fanout=3" -scale small
//	figure1 -shard 0/2 -out run/ # half the grid, merge with -merge run/
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"numadag/internal/cliutil"
	"numadag/internal/core"
	"numadag/internal/shard"
)

func main() {
	var (
		scale    = cliutil.ScaleFlag(flag.CommandLine, "paper")
		seeds    = cliutil.SeedsFlag(flag.CommandLine, 3)
		bars     = flag.Bool("bars", false, "render ASCII bars instead of a table")
		csvF     = flag.String("csv", "", "also write the table as CSV to this file")
		outputs  = cliutil.BindOutputs(flag.CommandLine, false)
		wsize    = flag.Int("window", 0, "override window size (0 = default 2048)")
		appsF    = cliutil.AppsFlag(flag.CommandLine, "comma-separated workload specs (default: the eight paper benchmarks)")
		traceOut = cliutil.BindTrace(flag.CommandLine)
		shardSet = cliutil.BindShard(flag.CommandLine)
		cpuProf  = cliutil.BindCPUProfile(flag.CommandLine)
	)
	flag.Parse()
	if err := cpuProf.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := cpuProf.Stop(); err != nil {
			fatal(err)
		}
	}()

	sc, err := scale()
	if err != nil {
		fatal(err)
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
	traceOut.Enable(false)
	opt.Trace = traceOut.Attacher()

	mode, err := shardSet.Mode()
	if err != nil {
		fatal(err)
	}
	e := core.Figure1Experiment(opt)
	table := core.Figure1Table(opt)
	var sinks []core.Sink
	if mode.FullStream() {
		sinks = append(sinks, table)
		extra, err := outputs.Sinks()
		if err != nil {
			fatal(err)
		}
		sinks = append(sinks, extra...)
	} else if outputs.Any() {
		fmt.Fprintln(os.Stderr, "figure1: note: -jsonl applies to full-stream modes; shard journals land in -out (combine with -merge)")
	}
	err = cliutil.Drive(context.Background(), e, mode, shardSet, sinks...)
	if cerr := outputs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if errors.Is(err, shard.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "figure1: interrupted after -maxcells=%d fresh cells; continue with -resume\n", shardSet.MaxCells)
		return
	}
	if err != nil {
		fatal(err)
	}
	if err := traceOut.Write(); err != nil {
		fatal(err)
	}
	if !mode.FullStream() {
		return
	}
	if *csvF != "" {
		f, err := os.Create(*csvF)
		if err != nil {
			fatal(err)
		}
		if err := table.Table().WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *bars {
		if err := table.Table().WriteBars(os.Stdout, 48); err != nil {
			fatal(err)
		}
	} else {
		if err := table.Table().Write(os.Stdout); err != nil {
			fatal(err)
		}
	}
	fmt.Print("\npaper reference (speedup over LAS):")
	sep := ""
	for _, v := range core.Figure1Paper {
		fmt.Printf("%s %s %s %.2f", sep, v.App, v.Policy, v.Speedup)
		sep = ","
	}
	fmt.Println()
}

func fatal(err error) {
	cliutil.Fatal("figure1", err)
}
