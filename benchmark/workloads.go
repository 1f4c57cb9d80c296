package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"numadag/internal/apps"
	"numadag/internal/cluster"
	"numadag/internal/core"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/workload"
)

// workers is the batch worker-pool size: the benchmark keeps at most this
// many goroutines doing simulation work, matching the 2-core hosts the
// baseline was measured on. It is fixed (not GOMAXPROCS) so that a result
// means the same thing on every host.
const workers = 2

// def names one benchmark workload. make builds its inputs from the seed at
// the given size: full is the size a benchmark run uses, smoke the
// scaled-down size the smoke test uses. The unit of size is per workload
// (replicate seeds, jobs or specs).
type def struct {
	name  string
	why   string
	make  func(seed uint64, size int) bench
	full  int
	smoke int
}

// defs lists the workloads in the order the orchestrator runs them.
var defs = []def{
	{
		name:  "fig1-paper",
		why:   "the paper's Figure-1 grid: 8 apps x {LAS, DFIFO, RGP+LAS, EP} at paper scale on bullion-s16; rt and sim dominate, snapshots are cached",
		make:  fig1Paper,
		full:  3,
		smoke: 1,
	},
	{
		name:  "rgp-repartition",
		why:   "RGP repartitions every 512-task window, so the partitioner dominates each cell; fig1-paper only partitions one window",
		make:  rgpRepartition,
		full:  2,
		smoke: 1,
	},
	{
		name:  "fleet-16",
		why:   "service mode: 16 machines on one engine, open-loop arrivals from four tenants, one snapshot install per short job, no partitioner",
		make:  fleet16,
		full:  12000,
		smoke: 300,
	},
	{
		name:  "cold-sweep",
		why:   "every graph is distinct and runs once, so generation, dependence derivation and snapshotting are not amortised by the cache",
		make:  coldSweep,
		full:  48,
		smoke: 4,
	},
}

func lookup(name string) (def, error) {
	for _, d := range defs {
		if d.name == name {
			return d, nil
		}
	}
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	return def{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// bench is one workload with its inputs fixed. A round is one call into the
// program's production entry point over the whole input; rounds repeat the
// same input, so every round must reproduce the same digest.
type bench interface {
	// specs lists the distinct workload specs the rounds run, with the scale
	// and machine they resolve at.
	specs() ([]string, apps.Scale, machine.Config)
	// round runs the input once, untraced, through core.Experiment or
	// cluster.Run.
	round() (outcome, error)
	// traced runs the input once through the same public layer functions,
	// timing and counting at each call boundary into lt.
	traced(lt *layers) (outcome, error)
}

// outcome is what one round produced: the number of runs (cells or jobs),
// a digest of the simulated results, and the simulated time of each run.
type outcome struct {
	runs   int
	digest uint64
	simMs  []float64
	// wall is a traced round's host time on the production path, without
	// the standalone replays; the overhead base for trace.overhead_pct.
	wall time.Duration
}

// simGeomean is the geometric mean of the runs' simulated times.
func (o outcome) simGeomean() float64 {
	if len(o.simMs) == 0 {
		return 0
	}
	var s float64
	for _, v := range o.simMs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(o.simMs)))
}

// built is what one setup pass measured: the time spent resolving and
// snapshotting every distinct spec, and the specs' task count.
type built struct {
	buildNs int64 // workload.New + Workload.Instantiate
	snapNs  int64 // rt.Snap
	tasks   int
}

// setup resolves every distinct spec and builds its snapshot once, through
// the same public path the program's own caches use.
func setup(b bench) (built, error) {
	specs, scale, mc := b.specs()
	var out built
	for _, spec := range specs {
		snap, buildNs, snapNs, err := buildSnapshot(spec, scale, mc)
		if err != nil {
			return built{}, err
		}
		if snap.Tasks() == 0 {
			return built{}, fmt.Errorf("spec %s built an empty graph", spec)
		}
		out.buildNs += buildNs
		out.snapNs += snapNs
		out.tasks += snap.Tasks()
	}
	return out, nil
}

// buildSnapshot prototypes a spec and captures its task graph, the public
// path the program's own snapshot caches take, and reports the host time of
// the build (workload.New + Workload.Instantiate) and of rt.Snap.
func buildSnapshot(spec string, scale apps.Scale, mc machine.Config) (snap *rt.Snapshot, buildNs, snapNs int64, err error) {
	t0 := time.Now()
	w, err := workload.New(spec, scale)
	if err != nil {
		return nil, 0, 0, err
	}
	proto, err := w.Instantiate(mc)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("build %s: %w", spec, err)
	}
	t1 := time.Now()
	if snap, err = rt.Snap(proto); err != nil {
		return nil, 0, 0, fmt.Errorf("snap %s: %w", spec, err)
	}
	proto.Release()
	return snap, int64(t1.Sub(t0)), int64(time.Since(t1)), nil
}

// batch is a core.Experiment grid.
type batch struct {
	exp core.Experiment
	// table, when set, adds the production Figure-1 aggregation as a sink.
	table func() *core.TableSink
}

// fig1Paper is the Figure-1 grid at paper scale with the given number of
// replicate seeds per (app, policy).
func fig1Paper(seed uint64, seeds int) bench {
	opt := core.DefaultFigure1Options()
	opt.Runtime.Seed = seed
	opt.Seeds = seeds
	exp := *core.Figure1Experiment(opt)
	exp.Apps = apps.Names()
	exp.Workers = workers
	return &batch{exp: exp, table: func() *core.TableSink { return core.Figure1Table(opt) }}
}

// rgpRepartition runs the repartition-every-window RGP ablation over the
// eight paper apps plus two seeded partitioner-stressing generators.
func rgpRepartition(seed uint64, seeds int) bench {
	opts := rt.DefaultOptions()
	opts.Seed = seed
	opts.WindowSize = 512
	specs := append(apps.Names(),
		fmt.Sprintf("random-layered?layers=24&width=96&cv=0.4&seed=%d", seed),
		fmt.Sprintf("forkjoin?depth=9&fanout=2&seed=%d", seed))
	return &batch{exp: core.Experiment{
		Name:     "rgp-repartition",
		Apps:     specs,
		Policies: []string{"RGP"},
		Scale:    apps.Paper,
		Machines: []machine.Config{machine.BullionS16()},
		Runtime:  opts,
		Seeds:    seeds,
		Workers:  workers,
	}}
}

// coldSweep runs n distinct random layered graphs once each under LAS.
func coldSweep(seed uint64, n int) bench {
	opts := rt.DefaultOptions()
	opts.Seed = seed
	specs := make([]string, n)
	for k := range specs {
		specs[k] = fmt.Sprintf("random-layered?layers=32&width=64&seed=%d", seed*1000+uint64(k))
	}
	return &batch{exp: core.Experiment{
		Name:     "cold-sweep",
		Apps:     specs,
		Policies: []string{"LAS"},
		Scale:    apps.Paper,
		Machines: []machine.Config{machine.BullionS16()},
		Runtime:  opts,
		Seeds:    1,
		Workers:  workers,
	}}
}

func (b *batch) specs() ([]string, apps.Scale, machine.Config) {
	return b.exp.Apps, b.exp.Scale, b.exp.Machines[0]
}

// sinks returns the round's sinks: the digest, the JSONL trajectory the
// commands write (here to io.Discard) and, for Figure 1, the table.
func (b *batch) sinks() (*digestSink, []core.Sink, *core.TableSink) {
	d := &digestSink{h: fnvOffset}
	sinks := []core.Sink{d, core.NewJSONLSink(io.Discard)}
	var tab *core.TableSink
	if b.table != nil {
		tab = b.table()
		sinks = append(sinks, tab)
	}
	return d, sinks, tab
}

func (b *batch) round() (outcome, error) {
	d, sinks, _ := b.sinks()
	if err := b.exp.Run(context.Background(), sinks...); err != nil {
		return outcome{}, err
	}
	return outcome{runs: d.n, digest: d.h, simMs: d.simMs}, nil
}

// digestSink folds every cell's (index, makespan, local bytes, remote bytes)
// into an FNV-1a digest, in the canonical order sinks receive cells.
type digestSink struct {
	h     uint64
	n     int
	simMs []float64
}

func (d *digestSink) Emit(res core.CellResult) error {
	d.h = fnvMix(d.h, uint64(res.Cell.Index), uint64(res.Stats.Makespan),
		uint64(res.Stats.LocalBytes), uint64(res.Stats.RemoteBytes))
	d.n++
	d.simMs = append(d.simMs, float64(res.Stats.Makespan)/float64(sim.Millisecond))
	return nil
}

func (d *digestSink) Close() error { return nil }

const fnvOffset = 14695981039346656037

func fnvMix(h uint64, vs ...uint64) uint64 {
	const prime = 1099511628211
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	return h
}

// fleet is a cluster.Run service-mode configuration.
type fleet struct {
	cfg cluster.Config
}

// fleetRate is the fleet's total mean arrival rate in jobs per simulated
// second.
const fleetRate = 45000

// fleet16 is 16 two-socket machines serving four tenants' open-loop
// arrivals.
func fleet16(seed uint64, jobs int) bench {
	return &fleet{cfg: cluster.Config{
		Machines: 16,
		Machine:  machine.TwoSocketXeon(),
		Policy:   "LAS",
		Runtime:  rt.DefaultOptions(),
		Scale:    apps.Tiny,
		Tenants: []cluster.Tenant{
			{Name: "stencil", Process: "poisson", Rate: 0.4 * fleetRate,
				Specs: []string{"jacobi?scale=tiny", "red-black?scale=tiny"}},
			{Name: "linalg", Process: "poisson", Rate: 0.2 * fleetRate,
				Specs: []string{"qr?scale=tiny", "cg?scale=tiny"}},
			{Name: "batch", Process: "diurnal", Rate: 0.3 * fleetRate, Amplitude: 0.6, Period: 20 * sim.Millisecond,
				Specs: []string{
					fmt.Sprintf("forkjoin?depth=5&fanout=2&seed=%d", seed),
					fmt.Sprintf("random-layered?layers=6&width=8&seed=%d", seed),
				}},
			{Name: "web", Process: "poisson", Rate: 0.1 * fleetRate,
				Specs: []string{"noop?tasks=4&flops=4096"}},
		},
		Jobs:       jobs,
		Seed:       seed,
		Dispatcher: "kchoices?d=2",
		Procs:      1,
		Audit:      true,
	}}
}

func (f *fleet) specs() ([]string, apps.Scale, machine.Config) {
	var specs []string
	for _, t := range f.cfg.Tenants {
		specs = append(specs, t.Specs...)
	}
	return specs, f.cfg.Scale, f.cfg.Machine
}

func (f *fleet) round() (outcome, error) {
	res, err := cluster.Run(f.cfg, core.NewJSONLSink(io.Discard))
	if err != nil {
		return outcome{}, err
	}
	return fleetOutcome(res), nil
}

// fleetOutcome digests a cluster result by its completion stream and
// collects every job's simulated response time.
func fleetOutcome(res *cluster.Result) outcome {
	o := outcome{runs: len(res.Jobs), digest: res.CompletionHash()}
	o.simMs = make([]float64, len(res.Jobs))
	for i := range res.Jobs {
		j := &res.Jobs[i]
		resp := j.EndAt - j.SubmitAt
		if resp < 1 {
			resp = 1
		}
		o.simMs[i] = float64(resp) / float64(sim.Millisecond)
	}
	return o
}
