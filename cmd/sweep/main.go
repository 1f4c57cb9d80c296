// Command sweep runs the paper's design ablations (the §2.2 knobs):
//
//	-exp window      (A1) window-size sensitivity of RGP+LAS
//	-exp partitioner (A2) partitioner quality: full multilevel vs ablated
//	-exp sockets     (A3) socket-count scaling (2/4/8 sockets)
//	-exp propagation (A4) RGP propagation: RGP+LAS vs pure RGP vs LAS
//
// Each experiment is a declaration over core.Experiment: one grid of
// (app x policy-spec x machine x variant x seed) cells, every cell run
// through the audited core.Run path, aggregated by a TableSink. The
// partitioner ablations are policy registry specs ("RGP+LAS?matching=random",
// "RGP+LAS?refine=off") plus the "RGP-cyclic" policy this command registers
// in variants.go; -jsonl/-csv stream every cell result as it completes.
//
// A sweep runs in one process: each experiment takes 0.5–1.6 s at paper
// scale with 3 seeds on two cores.
//
// Usage:
//
//	sweep -exp window -scale small
//	sweep -exp sockets -apps jacobi,nstream
//	sweep -exp window -apps "random-layered?layers=24&width=96"
//	sweep -exp partitioner -seeds 3 -jsonl cells.jsonl
//
// -apps takes workload registry specs (dagen -list), and every experiment
// shares TDG construction across its policy/variant/seed cells through the
// experiment's snapshot cache. Replicates (-seeds) vary the runtime seed,
// which drives scheduling noise only: RGP's partitioner keeps a fixed seed,
// so the replicates of a graph share one partition per window, under every
// partitioner ablation (?matching=random too), and pure RGP's replicates
// are copies of its first.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"numadag/internal/apps"
	"numadag/internal/cliutil"
	"numadag/internal/core"
	"numadag/internal/machine"
	"numadag/internal/rt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes sweep with the given arguments and returns its exit code:
// 0 on success, 1 when the experiment or an output fails, and 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "window", "experiment: window, partitioner, sockets, propagation")
		scale   = cliutil.ScaleFlag(fs, "small")
		appsF   = cliutil.AppsFlag(fs, "comma-separated workload specs (default depends on experiment)")
		seeds   = cliutil.SeedsFlag(fs, 2)
		outputs = cliutil.BindOutputs(fs, true)
		cpuProf = cliutil.BindCPUProfile(fs)
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sweep:", err)
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
	e, table, err := declare(*exp, sc, appsF(), *seeds)
	if err != nil {
		return fail(err)
	}
	sinks, err := outputs.Sinks()
	if err != nil {
		return fail(err)
	}
	err = e.Run(context.Background(), append([]core.Sink{table}, sinks...)...)
	if cerr := outputs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	if err := table.Table().Write(stdout); err != nil {
		return fail(err)
	}
	return 0
}

// declare builds the experiment grid and its table aggregation for one
// ablation.
func declare(exp string, sc apps.Scale, appList []string, seeds int) (*core.Experiment, *core.TableSink, error) {
	switch exp {
	case "window":
		return windowSweep(sc, appList, seeds)
	case "partitioner":
		return partitionerSweep(sc, appList, seeds)
	case "sockets":
		return socketSweep(sc, appList, seeds)
	case "propagation":
		return propagationSweep(sc, appList, seeds)
	default:
		return nil, nil, fmt.Errorf("unknown experiment %q", exp)
	}
}

// windowSweep (A1): RGP+LAS makespan, normalized to the best, as the window
// size grows from 64 to 8192.
func windowSweep(sc apps.Scale, appList []string, seeds int) (*core.Experiment, *core.TableSink, error) {
	if appList == nil {
		appList = []string{"jacobi", "qr"}
	}
	windows := []int{64, 256, 1024, 2048, 8192}
	variants := make([]core.Variant, len(windows))
	for i, w := range windows {
		w := w
		variants[i] = core.Variant{
			Name:   fmt.Sprintf("w=%d", w),
			Mutate: func(o *rt.Options) { o.WindowSize = w },
		}
	}
	e := &core.Experiment{
		Name:     "A1-window",
		Apps:     appList,
		Policies: []string{"RGP+LAS"},
		Scale:    sc,
		Variants: variants,
		Seeds:    seeds,
	}
	table := core.NewTableSink(core.TableOptions{
		Title: "A1: RGP+LAS makespan vs window size (normalized to best)",
		Col:   func(c core.Cell) string { return c.Variant },
		Norm:  core.NormBest,
	})
	return e, table, nil
}

// partitionerSweep (A2): RGP+LAS makespan under partitioner ablations,
// normalized to the full multilevel pipeline. The ablations are registry
// specs; "cyclic" is the RGP-cyclic policy registered in variants.go.
func partitionerSweep(sc apps.Scale, appList []string, seeds int) (*core.Experiment, *core.TableSink, error) {
	if appList == nil {
		appList = apps.Names()
	}
	specs := []string{"RGP+LAS", "RGP+LAS?matching=random", "RGP+LAS?refine=off", "RGP-cyclic"}
	labels := map[string]string{
		"RGP+LAS":                 "full",
		"RGP+LAS?matching=random": "random-match",
		"RGP+LAS?refine=off":      "no-refine",
		"RGP-cyclic":              "cyclic",
	}
	e := &core.Experiment{
		Name:     "A2-partitioner",
		Apps:     appList,
		Policies: specs,
		Scale:    sc,
		Seeds:    seeds,
	}
	table := core.NewTableSink(core.TableOptions{
		Title:          "A2: RGP+LAS makespan by partitioner variant (normalized to full)",
		Col:            func(c core.Cell) string { return labels[c.Policy] },
		Columns:        []string{"full", "random-match", "no-refine", "cyclic"},
		Norm:           core.NormRatio,
		BaselineColumn: "full",
	})
	return e, table, nil
}

// socketSweep (A3): LAS-relative speedup of RGP+LAS on 2-, 4- and 8-socket
// machines. The LAS runs feed each machine column's baseline.
func socketSweep(sc apps.Scale, appList []string, seeds int) (*core.Experiment, *core.TableSink, error) {
	if appList == nil {
		appList = apps.Names()
	}
	machines := []machine.Config{machine.TwoSocketXeon(), machine.FourSocket(), machine.BullionS16()}
	label := make(map[string]string, len(machines))
	cols := make([]string, len(machines))
	for i, m := range machines {
		cols[i] = fmt.Sprintf("%ds", m.Sockets)
		label[m.Name] = cols[i]
	}
	e := &core.Experiment{
		Name:     "A3-sockets",
		Apps:     appList,
		Policies: []string{"LAS", "RGP+LAS"},
		Scale:    sc,
		Machines: machines,
		Seeds:    seeds,
	}
	table := core.NewTableSink(core.TableOptions{
		Title:    "A3: RGP+LAS speedup over LAS by socket count",
		Col:      func(c core.Cell) string { return label[c.Machine] },
		Columns:  cols,
		Norm:     core.NormSpeedup,
		Baseline: func(c core.Cell) bool { return c.Policy == "LAS" },
	})
	return e, table, nil
}

// propagationSweep (A4): speedup over LAS of the two RGP propagation modes.
// The window is forced small enough that every app spans several windows —
// with a single window the two modes coincide by construction.
func propagationSweep(sc apps.Scale, appList []string, seeds int) (*core.Experiment, *core.TableSink, error) {
	if appList == nil {
		appList = apps.Names()
	}
	const window = 256
	opts := rt.DefaultOptions()
	opts.WindowSize = window
	e := &core.Experiment{
		Name:     "A4-propagation",
		Apps:     appList,
		Policies: []string{"LAS", "RGP+LAS", "RGP"},
		Scale:    sc,
		Runtime:  opts,
		Seeds:    seeds,
	}
	table := core.NewTableSink(core.TableOptions{
		Title:    fmt.Sprintf("A4: speedup over LAS by propagation mode (window=%d)", window),
		Columns:  []string{"RGP+LAS", "RGP"},
		Norm:     core.NormSpeedup,
		Baseline: func(c core.Cell) bool { return c.Policy == "LAS" },
	})
	return e, table, nil
}
