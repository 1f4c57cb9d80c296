// Package core orchestrates the paper's evaluation: it wires an application
// task graph, a scheduling policy and a simulated machine together, runs the
// simulation, and produces the speedup tables of Figure 1 and the ablation
// sweeps cmd/sweep runs.
package core

import (
	"context"
	"fmt"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/metrics"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/trace"
	"numadag/internal/workload"
)

// PolicyNames lists the Figure-1 configurations in the paper's legend
// order. LAS is the baseline all speedups are relative to. The full set of
// instantiable policies lives in the policy registry (policy.Names).
var PolicyNames = []string{"DFIFO", "RGP+LAS", "EP", "LAS"}

// Config describes one simulation run. App is a workload registry spec —
// a benchmark name ("jacobi"), a parameterized generator
// ("random-layered?layers=24&width=96") or an imported DAG
// ("file?path=graph.json"); Scale is the contextual problem size a spec
// without an explicit scale= parameter resolves at.
type Config struct {
	App     string
	Scale   apps.Scale
	Policy  string
	Machine machine.Config
	Runtime rt.Options
	// Trace, when non-nil, records the run: the machine is attached under
	// process id TracePID and the tracer's task observer is installed unless
	// Runtime.Observer is already set (a user observer wins the Observer
	// slot; the machine-level flow and counter hooks record either way).
	// Traced runs bypass the runtime and machine pools — tracer hooks cannot
	// be detached, and observers may hold *Task beyond the run.
	Trace    *trace.Tracer
	TracePID int
}

// DefaultConfig returns the evaluation settings: bullion S16 machine and
// the default runtime options.
func DefaultConfig(app, pol string, scale apps.Scale) Config {
	return Config{
		App:     app,
		Scale:   scale,
		Policy:  pol,
		Machine: machine.BullionS16(),
		Runtime: rt.DefaultOptions(),
	}
}

// RunResult couples a run's configuration with its statistics.
type RunResult struct {
	Config Config
	Stats  rt.Result
	Tasks  int
	// seedUsed reports that the run reached its seed (rt.Runtime.SeedUsed).
	seedUsed bool
}

// Run executes one configuration. Every run is audited against the task
// graph's semantics (dependences respected, cores exclusive) before its
// statistics are trusted; an audit failure is a bug in the runtime or
// policy, surfaced as an error rather than a silently wrong data point.
func Run(cfg Config) (RunResult, error) {
	return runWith(cfg, nil, nil)
}

// runWith executes one configuration and reports whether the run used its
// seed. The task graph is installed from snap when it is non-nil (a graph
// an Experiment's cells share, through its pool — bit-identical to
// rebuilding). Otherwise it is built in place, into the run's own
// pooled runtime, from w, or from cfg.App resolved through the workload
// registry when w is nil.
func runWith(cfg Config, w *workload.Workload, snap *rt.Snapshot) (RunResult, error) {
	pol, err := policy.New(cfg.Policy)
	if err != nil {
		return RunResult{}, err
	}
	if err := cfg.Machine.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := cfg.Runtime.Validate(); err != nil {
		return RunResult{}, err
	}
	if snap == nil && w == nil {
		resolved, err := workload.New(cfg.App, cfg.Scale)
		if err != nil {
			return RunResult{}, err
		}
		w = &resolved
	}
	m := acquireMachine(cfg.Machine)
	if cfg.Trace != nil {
		obs := cfg.Trace.AttachMachine(m, cfg.TracePID,
			fmt.Sprintf("%s %s seed%d", cfg.App, cfg.Policy, cfg.Runtime.Seed))
		if cfg.Runtime.Observer == nil {
			cfg.Runtime.Observer = obs
		}
	}
	r := rt.NewRuntime(m, pol, cfg.Runtime)
	if snap != nil {
		snap.Install(r)
	} else if err := w.BuildInto(r); err != nil {
		return RunResult{}, err
	}
	stats := r.Run()
	if err := r.AuditSchedule(); err != nil {
		return RunResult{}, fmt.Errorf("core: %s/%s: %w", cfg.App, cfg.Policy, err)
	}
	seedUsed := r.SeedUsed()
	if cfg.pooled() {
		// The audit has run and the Result slices are per-run, so both the
		// runtime's arenas and graph storage and the machine/engine pair
		// can go back to their pools for the next cell.
		r.Release()
		releaseMachine(m)
	}
	return RunResult{Config: cfg, Stats: stats, Tasks: stats.TasksRun, seedUsed: seedUsed}, nil
}

// pooled reports whether a successful run of cfg releases its runtime and
// machine to their pools: with no observer and no tracer, nothing outside
// runWith saw a *Task, a *Region, the task graph or the machine. Traced
// machines carry undetachable flow hooks and flushers, and observers may
// hold tasks beyond the run, so neither re-enters a pool.
func (cfg *Config) pooled() bool {
	return cfg.Runtime.Observer == nil && cfg.Trace == nil
}

// Figure1Options tunes the Figure-1 reproduction.
type Figure1Options struct {
	Scale   apps.Scale
	Machine machine.Config
	Runtime rt.Options
	// Seeds averages each (app, policy) cell over this many seeds (the
	// paper averages repeated executions; randomized policies like LAS
	// need it for stable numbers). As in Experiment.Seeds, 0 means 1 and a
	// negative count is an error. DFIFO and EP place by a fixed rule on
	// the paper's apps and never reach the seed, so their later seeds are
	// copies of the first seed's run, not simulations (see Experiment).
	Seeds int
	// Apps optionally restricts the benchmark list (nil = all eight).
	Apps []string
	// Trace optionally records every grid cell (see Experiment.Trace).
	Trace *trace.Tracer
}

// DefaultFigure1Options returns the paper-faithful settings.
func DefaultFigure1Options() Figure1Options {
	return Figure1Options{
		Scale:   apps.Paper,
		Machine: machine.BullionS16(),
		Runtime: rt.DefaultOptions(),
		Seeds:   3,
	}
}

// figure1Cols is the Figure-1 legend minus the LAS baseline, in legend
// order — the table's measured columns.
func figure1Cols() []string {
	var cols []string
	for _, p := range PolicyNames {
		if p != "LAS" {
			cols = append(cols, p)
		}
	}
	return cols
}

// Figure1Experiment declares the paper's Figure-1 grid: every benchmark
// under each PolicyNames configuration (LAS the baseline), replicated over
// seeds.
func Figure1Experiment(opt Figure1Options) *Experiment {
	return &Experiment{
		Name:     "figure1",
		Apps:     opt.Apps,
		Policies: append([]string{"LAS"}, figure1Cols()...),
		Scale:    opt.Scale,
		Machines: []machine.Config{opt.Machine},
		Runtime:  opt.Runtime,
		Seeds:    opt.Seeds,
		Trace:    opt.Trace,
	}
}

// Figure1Table returns the table aggregator matching Figure 1's axes:
// speedup over the LAS baseline (which feeds the reference instead of a
// column) plus the geometric-mean row.
func Figure1Table(opt Figure1Options) *TableSink {
	return NewTableSink(TableOptions{
		Title: fmt.Sprintf("Figure 1: speedup over LAS (%s, %s scale, %d seed(s))",
			opt.Machine.Name, opt.Scale, replicates(opt.Seeds)),
		Columns:  figure1Cols(),
		Norm:     NormSpeedup,
		Baseline: func(c Cell) bool { return c.Policy == "LAS" },
		Geomean:  true,
	})
}

// Figure1 reproduces the paper's Figure 1: for every benchmark it runs
// DFIFO, RGP+LAS, EP and LAS on the configured machine and reports each
// policy's speedup over the LAS baseline, plus the geometric mean row.
// The returned table has one row per app (plus "geomean") and one column
// per policy.
//
// It is a thin declaration over the Experiment API: individual runs are
// independent and internally deterministic, so the grid executes on the
// shared worker pool and the table is identical to a sequential
// evaluation. Extra sinks (e.g. a JSONL trajectory) receive every cell
// result alongside the table aggregation.
func Figure1(opt Figure1Options, extra ...Sink) (*metrics.Table, error) {
	table := Figure1Table(opt)
	sinks := append([]Sink{table}, extra...)
	if err := Figure1Experiment(opt).Run(context.Background(), sinks...); err != nil {
		return nil, err
	}
	return table.Table(), nil
}
