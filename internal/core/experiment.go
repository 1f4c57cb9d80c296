package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/trace"
	"numadag/internal/workload"
)

// DeriveSeed is the single source of truth for replicate seeds across the
// whole evaluation: replicate r of a configuration whose base seed is b
// runs with seed b + 1000*r. Replicates are spaced 1000 apart so that the
// seeds of neighbouring base seeds' replicates (b and b+1, as a multi-seed
// command passes them) never collide; every command and sweep must go
// through this formula rather than hard-coding its own. The seed drives
// only run-to-run scheduling noise (rt.Runtime.Rand): RGP's partitioner
// keeps a fixed seed, so replicates share one window plan.
func DeriveSeed(base uint64, replicate int) uint64 {
	return base + 1000*uint64(replicate)
}

// Variant is one runtime-option mutation axis value of an Experiment: a
// named tweak applied to the base rt.Options before a cell runs (window
// sizes, stealing toggles, partition-cost sensitivity, ...). Mutate may be
// nil for an identity variant. The cell's seed is assigned after Mutate
// runs, so variants cannot accidentally bypass DeriveSeed.
type Variant struct {
	Name   string
	Mutate func(*rt.Options)
}

// Cell identifies one run of an experiment grid: the cross product
// coordinates plus the derived seed. Index is the cell's position in the
// canonical enumeration order (apps x policies x machines x variants x
// replicates, replicates innermost); sinks receive results in exactly this
// order regardless of how the worker pool interleaves execution.
type Cell struct {
	Index     int
	App       string
	Policy    string // registry spec, e.g. "RGP+LAS?matching=random"
	Machine   string // machine config name
	Variant   string // variant name ("" when the experiment has no variants)
	Replicate int
	Seed      uint64
}

// CellResult couples a cell with the concrete Config it ran and the run's
// statistics.
type CellResult struct {
	Cell   Cell
	Config Config
	Stats  rt.Result
}

// Sink consumes a stream of cell results. Emit is called from a single
// goroutine, in canonical cell order; Close is called exactly once when the
// experiment finishes (successfully or not), so sinks can flush buffered
// output. A non-nil error from either aborts the experiment.
type Sink interface {
	Emit(CellResult) error
	Close() error
}

// Experiment declares an evaluation grid: the cross product of apps,
// policy specs, machines, runtime-option variants and replicate seeds. Run
// executes every simulated cell through the audited core.Run path on a
// shared worker pool and streams the results, in deterministic order, to
// the given sinks. The paper's Figure 1 and all ablation sweeps are
// declarations of this type.
//
// Each (workload, machine) task graph that several cells run — several
// policies, variants or replicates — is built once (Workload.Snapshot) and
// installed by every cell that runs it. Once the last of them has released
// its runtime, the snapshot's storage is recycled for the next graph's
// snapshot, so a sweep's memory follows its workers rather than its number
// of distinct graphs; a traced or observed cell never releases its runtime,
// so its snapshot is left to the garbage collector. A graph that exactly
// one cell runs is built straight into that cell's runtime instead, on
// graph storage the runtime pool keeps from build to build, and is never
// snapshotted. Installed graphs are bit-identical to rebuilt ones, so
// neither path changes results.
//
// Replicates share results the same way. Replicate 0 of each (app,
// policy, machine, variant) group leads it. When the leader's run never
// reached its seed (rt.Runtime.SeedUsed) and had no tracer and no
// observer, the run is the same at every seed, so each other replicate
// receives a copy of the leader's audited result, with slices of its own
// and its own Cell and Config, instead of simulating. DFIFO and EP on the
// paper's apps are such runs, and so is RGP, which repartitions every
// window with a fixed partitioner seed; LAS, and RGP+LAS on a graph of more
// than one window, are not. A copy never changes results.
//
// One scheduler does both (see pool): no worker waits while it has a cell
// to run. A cell whose graph another worker is building, or whose leader
// is still running, is set aside while its worker claims the next cell.
type Experiment struct {
	// Name labels the experiment (used in progress/diagnostic output).
	Name string
	// Apps lists workload registry specs — benchmark names ("jacobi"),
	// parameterized generators ("random-layered?layers=24&width=96",
	// "jacobi?nb=32&iters=4") or imported DAGs ("file?path=g.json"). Nil
	// means the paper's eight benchmarks.
	Apps []string
	// Policies lists policy registry specs; must be non-empty.
	Policies []string
	// Scale selects the problem size preset.
	Scale apps.Scale
	// Machines lists NUMA topologies; nil means the paper's bullion S16.
	Machines []machine.Config
	// Variants lists runtime-option mutations; nil means one identity
	// variant.
	Variants []Variant
	// Runtime is the base runtime options every cell starts from; the zero
	// value means rt.DefaultOptions(). Runtime.Seed is the base seed of
	// replicate 0 (see DeriveSeed). A non-nil Runtime.Observer is shared by
	// every cell and receives callbacks from concurrently executing runs —
	// it must be safe for concurrent use, or the experiment must set
	// Workers to 1.
	Runtime rt.Options
	// Seeds is the number of replicates per cell; 0 means 1. Replicates of
	// a run that never reaches its seed are copies of replicate 0's result.
	Seeds int
	// Trace, when non-nil, records every cell, each attached under its
	// canonical Index as the process id — so a grid's trace holds one
	// deterministic "process" per cell even when cells run concurrently.
	// Traced cells bypass the runtime/machine pools (see Config.Trace).
	Trace *trace.Tracer
	// Workers caps the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Progress, if set, is called after each in-order delivery with the
	// number of delivered cells and the grid size.
	Progress func(done, total int, res CellResult)
}

// plan is one fully-resolved cell: the public coordinates plus the machine
// config and variant needed to build its Config.
type plan struct {
	cell Cell
	mach machine.Config
	vari Variant
	// graph numbers the cell's (workload, machine) graph among the graphs
	// several cells share, or is -1 for a graph the cell alone runs, which
	// it builds in place; resolve sets it.
	graph int
}

func (e *Experiment) plans() ([]plan, error) {
	if len(e.Policies) == 0 {
		return nil, errors.New("core: experiment has no policies")
	}
	if e.Seeds < 0 || e.Workers < 0 {
		return nil, fmt.Errorf("core: negative Seeds/Workers")
	}
	appNames := e.Apps
	if appNames == nil {
		appNames = apps.Names()
	}
	if len(appNames) == 0 {
		return nil, errors.New("core: experiment has no apps")
	}
	machines := e.Machines
	if machines == nil {
		machines = []machine.Config{machine.BullionS16()}
	}
	if len(machines) == 0 {
		return nil, errors.New("core: experiment has no machines")
	}
	variants := e.Variants
	if variants == nil {
		variants = []Variant{{}}
	}
	if len(variants) == 0 {
		return nil, errors.New("core: experiment has no variants")
	}
	seeds := replicates(e.Seeds)
	base := e.baseOptions()
	var ps []plan
	for _, app := range appNames {
		for _, pol := range e.Policies {
			for _, m := range machines {
				for _, v := range variants {
					for s := 0; s < seeds; s++ {
						ps = append(ps, plan{
							cell: Cell{
								Index:     len(ps),
								App:       app,
								Policy:    pol,
								Machine:   m.Name,
								Variant:   v.Name,
								Replicate: s,
								Seed:      DeriveSeed(base.Seed, s),
							},
							mach: m,
							vari: v,
						})
					}
				}
			}
		}
	}
	return ps, nil
}

// replicates is the number of replicates a Seeds value runs: 0 means 1.
func replicates(seeds int) int {
	if seeds == 0 {
		return 1
	}
	return seeds
}

func (e *Experiment) baseOptions() rt.Options {
	// Compare with the Observer masked out: interface comparison would
	// panic on uncomparable Observer implementations, and an Observer-only
	// Runtime still means "default options, plus my observer".
	masked := e.Runtime
	masked.Observer = nil
	if masked == (rt.Options{}) {
		o := rt.DefaultOptions()
		o.Observer = e.Runtime.Observer
		return o
	}
	return e.Runtime
}

// Cells enumerates the grid in canonical order without running anything.
func (e *Experiment) Cells() ([]Cell, error) {
	ps, err := e.plans()
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(ps))
	for i, p := range ps {
		cells[i] = p.cell
	}
	return cells, nil
}

// config builds the audited-run configuration for one plan.
func (e *Experiment) config(p plan) Config {
	cfg := Config{
		App:     p.cell.App,
		Scale:   e.Scale,
		Policy:  p.cell.Policy,
		Machine: p.mach,
		Runtime: e.baseOptions(),
	}
	if p.vari.Mutate != nil {
		p.vari.Mutate(&cfg.Runtime)
	}
	cfg.Runtime.Seed = p.cell.Seed
	cfg.Trace = e.Trace
	cfg.TracePID = p.cell.Index
	return cfg
}

// Run executes the grid. Cells run concurrently on the worker pool, but
// individual runs are internally deterministic and results are delivered
// to sinks in canonical cell order, so the stream — and therefore any
// aggregation — is identical to a sequential evaluation. Every simulated
// cell goes through Run's schedule audit, and a copied replicate carries
// its leader's audited result; the first error (bad config, audit
// failure, sink failure or ctx cancellation) cancels the remaining cells
// and is returned after Close has been called on every sink.
func (e *Experiment) Run(ctx context.Context, sinks ...Sink) error {
	err := e.run(ctx, sinks...)
	for _, s := range sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

func (e *Experiment) run(ctx context.Context, sinks ...Sink) error {
	p, err := e.resolve()
	if err != nil {
		return err
	}
	return e.execute(ctx, p, sinks...)
}

// resolve enumerates the cells Run will execute, resolves their workloads
// and decides where each cell's task graph comes from: a graph planned for
// one cell alone is built in place, and the pool numbers the shared ones.
func (e *Experiment) resolve() (*pool, error) {
	ps, err := e.plans()
	if err != nil {
		return nil, err
	}
	// Resolve each distinct workload spec once up front: resolution may
	// touch disk (file import) and the instances are shared by every cell
	// and by the pool's builds. A bad spec fails the whole grid here,
	// before any simulation time is spent.
	wls := make(map[string]workload.Workload)
	keys := make([]string, len(ps))
	cells := make(map[string]int)
	for i := range ps {
		w, ok := wls[ps[i].cell.App]
		if !ok {
			var err error
			if w, err = workload.New(ps[i].cell.App, e.Scale); err != nil {
				return nil, err
			}
			wls[ps[i].cell.App] = w
		}
		keys[i] = graphKey(w, ps[i].mach)
		cells[keys[i]]++
	}
	// A graph one cell alone runs would be built, copied by rt.Snap and
	// copied again by Install for that one run; the cell builds it into its
	// own runtime instead, and the pool never sees it.
	graphs := make(map[string]int)
	for i, key := range keys {
		ps[i].graph = -1
		if cells[key] > 1 {
			if _, ok := graphs[key]; !ok {
				graphs[key] = len(graphs)
			}
			ps[i].graph = graphs[key]
		}
	}
	return newPool(ps, wls, replicates(e.Seeds), len(graphs)), nil
}

// execute runs the resolved cells on the worker pool and delivers their
// results to the sinks in canonical order.
func (e *Experiment) execute(ctx context.Context, p *pool, sinks ...Sink) error {
	ps := p.ps
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ps) {
		workers = len(ps)
	}
	// Room for every cell and each worker's stopping error: no send blocks.
	results := make(chan outcome, len(ps)+workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.work(ctx, p, results); err != nil {
				// Any error dooms the experiment; the worker stops claiming
				// cells instead of burning cycles until cancellation lands.
				results <- outcome{err: err}
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()

	// Reorder buffer: deliver results to sinks in canonical cell order,
	// keyed by Cell.Index, which is the cell's position in ps. After the
	// first error the loop only drains, until every worker has stopped.
	pending := make(map[int]CellResult)
	nextEmit := 0
	var firstErr error
	for o := range results {
		if firstErr != nil {
			continue
		}
		if o.err != nil {
			firstErr = o.err
			cancel()
			continue
		}
		pending[o.res.Cell.Index] = o.res
		for {
			res, ok := pending[nextEmit]
			if !ok {
				break
			}
			// A cancelled caller gets no further cells, not even those the
			// workers finished before they saw the cancellation.
			if err := ctx.Err(); err != nil {
				firstErr = err
				break
			}
			delete(pending, nextEmit)
			for _, s := range sinks {
				if err := s.Emit(res); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("core: sink: %w", err)
					cancel()
				}
			}
			if firstErr != nil {
				break
			}
			nextEmit++
			if e.Progress != nil {
				e.Progress(nextEmit, len(ps), res)
			}
		}
	}
	return firstErr
}

// outcome is one message from a worker: a cell's result or the error that
// stopped the worker.
type outcome struct {
	res CellResult
	err error
}

// work is one worker: it claims cells until none is left, runs or copies
// each, and sends the results. It returns the error that stopped it.
func (e *Experiment) work(ctx context.Context, p *pool, results chan<- outcome) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		j, ok := p.claim()
		if !ok {
			return nil
		}
		pl := p.ps[j.i]
		cfg := e.config(pl)
		if j.lead != nil {
			// A copy: the leader's statistics, with slices of its own,
			// under the cell's own Cell and Config.
			results <- outcome{res: CellResult{Cell: pl.cell, Config: cfg, Stats: j.lead.Clone()}}
			p.release(j)
			continue
		}
		res, err := p.run(cfg, j)
		if err != nil {
			return err
		}
		results <- outcome{res: CellResult{Cell: pl.cell, Config: cfg, Stats: res.Stats}}
		p.finish(j.i, &res.Stats, !res.seedUsed && cfg.pooled())
	}
}
