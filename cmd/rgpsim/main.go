// Command rgpsim runs one workload under one scheduling policy on the
// simulated NUMA machine and reports the run's statistics, optionally
// tracing it. Both axes are registry specs: -policy accepts any policy spec
// ("RGP+LAS?matching=random") and -app accepts any workload spec — a paper
// benchmark, a parameterized synthetic generator or an imported DAG; every
// run goes through the audited core.Run path. -trace writes the run's Chrome
// trace (task, transfer and flow spans, link-utilization counters) and
// -gantt prints it as a text timeline: one row per core, then one per
// memory controller or port that carried traffic.
//
// Usage:
//
//	rgpsim -app jacobi -policy RGP+LAS -scale paper
//	rgpsim -app "random-layered?layers=24&width=96" -policy RGP+LAS
//	rgpsim -app "file?path=testdata/dags/diamond.json" -policy LAS
//	rgpsim -app nstream -policy LAS -machine 2socket -gantt
//	rgpsim -app qr -policy EP -trace qr.json   # load in Perfetto
//	rgpsim -list                               # registered policies + workloads
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"numadag/internal/cliutil"
	"numadag/internal/core"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes rgpsim with the given arguments and returns its exit code:
// 0 on success, 1 when the run or the trace output fails, and 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("rgpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName  = fs.String("app", "jacobi", "workload registry spec (see -list), e.g. jacobi or forkjoin?depth=6")
		polName  = fs.String("policy", "RGP+LAS", "policy registry spec (see -list), e.g. LAS or RGP+LAS?refine=off")
		scale    = cliutil.ScaleFlag(fs, "small")
		machF    = cliutil.MachineFlag(fs, "bullion")
		window   = fs.Int("window", rt.DefaultOptions().WindowSize, "window size limit (tasks)")
		seed     = fs.Uint64("seed", 1, "random seed")
		noSteal  = fs.Bool("nosteal", false, "disable cross-socket work stealing")
		traceOut = cliutil.BindTrace(fs)
		gantt    = fs.Bool("gantt", false, "print a text Gantt chart: per-core and per-link rows")
		list     = fs.Bool("list", false, "list registered policies and workloads, then exit")
		cpuProf  = cliutil.BindCPUProfile(fs)
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "rgpsim:", err)
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

	if *list {
		fmt.Fprintln(stdout, "policies:")
		fmt.Fprintln(stdout, "  "+strings.Join(policy.Names(), "\n  "))
		fmt.Fprintln(stdout, "workloads (dagen -list for docs):")
		fmt.Fprintln(stdout, "  "+strings.Join(workload.Names(), "\n  "))
		return 0
	}
	sc, err := scale()
	if err != nil {
		return fail(err)
	}
	mach, err := machF()
	if err != nil {
		return fail(err)
	}
	cfg := core.Config{
		App:     *appName,
		Scale:   sc,
		Policy:  *polName,
		Machine: mach,
		Runtime: rt.DefaultOptions(),
	}
	cfg.Runtime.WindowSize = *window
	cfg.Runtime.Seed = *seed
	cfg.Runtime.Steal = !*noSteal
	traceOut.Enable(*gantt)
	cfg.Trace = traceOut.Attacher()

	res, err := core.Run(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "app=%s policy=%s scale=%s machine=%s window=%d seed=%d\n",
		*appName, *polName, sc, mach.Name, *window, *seed)
	fmt.Fprintf(stdout, "  %s\n", res.Stats.Summary())
	fmt.Fprintf(stdout, "  socket task counts: %v\n", res.Stats.SocketTasks)

	if traceOut.Path != "" {
		if err := traceOut.Write(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "  trace written to %s (load in Perfetto)\n", traceOut.Path)
	}
	if *gantt {
		if err := traceOut.Tracer.WriteGantt(stdout, 0, 100); err != nil {
			return fail(err)
		}
	}
	return 0
}
