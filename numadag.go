// Package numadag is a simulation framework for studying NUMA-aware
// scheduling of task dependency graphs, reproducing "Graph partitioning
// applied to DAG scheduling to reduce NUMA effects" (Sánchez Barrera et al.,
// PPoPP 2018).
//
// The package is a facade over the internal packages; it exposes everything
// a user needs to
//
//   - run the paper's benchmarks under its scheduling policies (Run,
//     Figure1),
//   - declare whole evaluation grids — workloads x policies x machines x
//     runtime variants x seeds — and execute them on a shared worker pool
//     with streaming result sinks (Experiment, TableSink, JSONL/CSV sinks),
//   - register custom scheduling policies by name so experiments and
//     commands can refer to them like built-ins (RegisterPolicy, the
//     Policy interface),
//   - register custom task-graph generators the same way (RegisterWorkload,
//     NewWorkload) and resolve workload specs — benchmarks, parameterized
//     synthetic DAGs, imported files — anywhere an app name is accepted,
//   - build custom task-based applications on the simulated runtime
//     (NewEngine/NewMachine/NewRuntime, TaskSpec, Access), and
//   - use the multilevel graph partitioner directly (Partition, MapOnto).
//
// Quick start — one run:
//
//	cfg := numadag.DefaultConfig("jacobi", "RGP+LAS", numadag.ScaleSmall)
//	res, err := numadag.Run(cfg)
//	fmt.Println(res.Stats.Summary())
//
// Quick start — a custom policy raced over a grid:
//
//	numadag.RegisterPolicy("Mine", func(spec numadag.PolicySpec) (numadag.Policy, error) {
//		return minePolicy{}, nil
//	})
//	e := &numadag.Experiment{
//		Apps:     []string{"jacobi", "nstream"},
//		Policies: []string{"LAS", "Mine", "RGP+LAS?matching=random"},
//		Scale:    numadag.ScaleSmall,
//		Seeds:    3,
//	}
//	table := numadag.NewTableSink(numadag.TableOptions{
//		Norm:     numadag.NormSpeedup,
//		Baseline: func(c numadag.Cell) bool { return c.Policy == "LAS" },
//		Geomean:  true,
//	})
//	if err := e.Run(context.Background(), table, numadag.NewJSONLSink(os.Stdout)); err != nil {
//		log.Fatal(err)
//	}
//	table.Table().Write(os.Stdout)
//
// Quick start — service mode (online multi-tenant cluster):
//
//	res, err := numadag.RunCluster(numadag.ClusterConfig{
//		Machines: 8,
//		Machine:  numadag.TwoSocketXeon(),
//		Policy:   "RGP+LAS",
//		Runtime:  numadag.DefaultRuntimeOptions(),
//		Scale:    numadag.ScaleTiny,
//		Tenants: []numadag.ClusterTenant{
//			{Name: "web", Specs: []string{"noop?tasks=4"}, Process: "poisson", Rate: 4000},
//			{Name: "hpc", Specs: []string{"forkjoin?depth=5"}, Process: "diurnal",
//				Rate: 500, Amplitude: 0.6, Period: 200 * numadag.Time(1e6)},
//		},
//		Jobs: 1000, Seed: 1, Dispatcher: "kchoices?d=2",
//	})
//	res.Stats.SummaryTable().Write(os.Stdout) // p50/p95/p99 slowdown vs IdealDC, per tenant
//
// Arrivals, dispatch and scheduling all derive from the one seed, so a
// fixed-seed service run is bit-identical across repeats; cmd/dcsim is the
// command-line driver.
//
// Quick start — tracing:
//
// A Tracer records the whole stack — task spans per core, memory transfers,
// fluid flows per link, per-link bandwidth-utilization counters, and in
// service mode job spans, dispatch decisions and queue depths — as Chrome
// trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Tracing observes without perturbing: a fixed-seed run
// is bit-identical with or without it.
//
//	tr := numadag.NewTracer()
//	cfg := numadag.DefaultConfig("jacobi", "RGP+LAS", numadag.ScaleSmall)
//	cfg.Trace = tr
//	if _, err := numadag.Run(cfg); err != nil {
//		log.Fatal(err)
//	}
//	tr.WriteFile("jacobi.json")        // open in Perfetto
//	tr.WriteGantt(os.Stdout, 0, 100)   // text timeline: cores + links
//
// The same Tracer slot exists on Experiment, Figure1Options and
// ClusterConfig (cmd/rgpsim -trace/-gantt, cmd/figure1 -trace, cmd/dcsim
// -trace). A hand-built runtime is traced by attaching its machine:
// opts.Observer = tr.AttachMachine(m, 0, "name") before NewRuntime.
//
// Quick start — workload specs:
//
// Policies, workloads and the service-mode dispatcher are all named in one
// spec grammar, "name" or "name?key=value&key=value": keys non-empty and
// unique, values possibly empty, unknown keys rejected by the named entry
// (the typo guard, WorkloadSpec.Only). A spec's canonical form (String)
// sorts its parameters, and experiments cache a workload's graph under it,
// so "a?y=2&x=1" and "a?x=1&y=2" share one graph. Errors start with
// "policy:", "workload:" or "cluster:".
//
// Wherever a benchmark name is accepted (Config.App, Experiment.Apps,
// cmd/rgpsim -app, cmd/dagpart -app, cmd/dagen -spec), a full workload
// registry spec works. The registered
// generators are the eight paper benchmarks (parameterizable:
// "jacobi?nb=32&tile=1M&iters=4"), the synthetic families
// "random-layered?layers=24&width=96&cv=0.4" and "forkjoin?depth=8&fanout=3",
// and "file?path=graph.json" for DAGs in cmd/dagpart's JSON format. Two
// keys are reserved on every workload: scale=tiny|small|paper overrides the
// contextual scale and seed=N drives the generator's own randomness —
// distinct from the runtime seed, so an N-replicate sweep reuses one graph.
// Custom generators register like policies. Submit copies a task's access
// list and label into the runtime, and Mem().Alloc a region's name
// (Task.Accesses is runtime storage until the runtime is released;
// Task.Label and Region.Name return copies), so a builder can refill one
// slice for every task:
//
//	numadag.MustRegisterWorkload("chain", "linear pipeline [n]",
//		func(s numadag.WorkloadSpec, scale numadag.Scale, seed uint64) (numadag.Workload, error) {
//			n, err := s.Int("n", 64)
//			if err != nil {
//				return numadag.Workload{}, err
//			}
//			return numadag.Workload{Build: func(r *numadag.Runtime) error {
//				var prev *numadag.Region
//				var acc []numadag.Access
//				for i := 0; i < n; i++ {
//					reg := r.Mem().Alloc(fmt.Sprintf("d%d", i), 64<<10, numadag.Deferred, 0)
//					acc = append(acc[:0], numadag.Access{Region: reg, Mode: numadag.Out})
//					if prev != nil {
//						acc = append(acc, numadag.Access{Region: prev, Mode: numadag.In})
//					}
//					r.Submit(numadag.TaskSpec{Label: fmt.Sprintf("t%d", i), Flops: 1e4,
//						Accesses: acc, EPSocket: numadag.NoEPHint})
//					prev = reg
//				}
//				return nil
//			}}, nil
//		})
//	res, _ := numadag.Run(numadag.DefaultConfig("chain?n=128", "RGP+LAS", numadag.ScaleSmall))
//
// Experiments build each workload's task graph once per machine. One
// scheduler, the experiment's pool, hands out the cells and shares their
// work. A graph several cells run (across policies, variants or replicate
// seeds) is snapshotted by the first of them and installed by the rest, and
// after its last cell its storage holds the next such graph; a graph only
// one cell runs is built straight into that cell's runtime, on graph
// storage the runtime pool keeps from build to build. Builders must
// therefore be pure functions of (spec, scale, seed, machine). Experiments
// also reuse results across replicate seeds: when replicate 0 of an (app,
// policy, machine, variant) group runs without reaching its seed, the
// group's other replicates receive copies of its audited result instead of
// simulating, while traced and observed cells always run. A cell whose
// graph is still being built, or whose group's first replicate still runs,
// waits aside while its worker runs another cell. A policy must
// therefore reach randomness only through Runtime.Rand, the call
// Runtime.SeedUsed reports; Runtime.Options returns the options with the
// seed zeroed. A value that is a pure function of the task graph and
// inputs a policy can name (RGP's window plan) is computed once per
// installed snapshot through Runtime.Shared and shared read-only.
// cmd/dagen lists, describes, generates and exports workloads.
//
// Policy names are registry specs in the same grammar: "name?key=value"
// parameterizes a registered family (e.g. the RGP partitioner ablations
// "RGP+LAS?matching=random" and "RGP+LAS?refine=off"). The built-ins are
// the four configurations the paper evaluates (DFIFO, LAS, EP, RGP+LAS) and
// RGP, its repartition-every-window mode. Replicate seeds
// always derive from the base seed via DeriveSeed — seed + 1000*replicate —
// and every simulated cell of an Experiment runs through the audited Run
// path; a copied replicate carries its leader's audited result.
package numadag

import (
	"io"

	"numadag/internal/apps"
	"numadag/internal/cluster"
	"numadag/internal/core"
	"numadag/internal/graph"
	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/metrics"
	"numadag/internal/partition"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/trace"
	"numadag/internal/workload"
)

// Simulation substrate.
type (
	// Engine is the deterministic discrete-event simulator.
	Engine = sim.Engine
	// Time is simulated nanoseconds.
	Time = sim.Time
	// Machine is an instantiated NUMA machine.
	Machine = machine.Machine
	// MachineConfig describes a NUMA topology.
	MachineConfig = machine.Config
)

// NewEngine creates a fresh simulation engine.
func NewEngine() *Engine { return sim.NewEngine() }

// NewMachine instantiates a machine config over an engine.
func NewMachine(cfg MachineConfig, eng *Engine) *Machine { return machine.New(cfg, eng) }

// Machine presets.
var (
	// BullionS16 is the paper's evaluation machine (8 sockets x 4 cores).
	BullionS16 = machine.BullionS16
	// TwoSocketXeon is a common 2-socket node.
	TwoSocketXeon = machine.TwoSocketXeon
	// FourSocket is a glueless 4-socket node.
	FourSocket = machine.FourSocket
	// UniformMachine has no NUMA effects (control configuration).
	UniformMachine = machine.Uniform
)

// Runtime layer.
type (
	// Runtime is the task-based runtime (the Nanos++ stand-in).
	Runtime = rt.Runtime
	// RuntimeOptions tunes window size, stealing and seeds.
	RuntimeOptions = rt.Options
	// TaskSpec describes a task at submission.
	TaskSpec = rt.TaskSpec
	// Task is a submitted task instance. Its label is kept once, in the
	// task graph's storage; the Label method returns a copy.
	Task = rt.Task
	// Access is one region dependence of a task.
	Access = rt.Access
	// AccessMode is In, Out or InOut.
	AccessMode = rt.AccessMode
	// Policy decides where ready tasks run.
	Policy = rt.Policy
	// Result is a run's statistics.
	Result = rt.Result
	// Region is a NUMA-homed allocation.
	Region = memory.Region
	// Placement selects how region pages are homed.
	Placement = memory.Placement
)

// Access modes and placements.
const (
	In    = rt.In
	Out   = rt.Out
	InOut = rt.InOut

	Deferred   = memory.Deferred
	FirstTouch = memory.FirstTouch
	Interleave = memory.Interleave
	HomePlaced = memory.Home

	// NoEPHint marks a task without an expert-programmer placement.
	NoEPHint = rt.NoEPHint
	// AnySocket lets the runtime place a task cyclically over cores.
	AnySocket = rt.AnySocket
	// DeferPlacement parks a task in the temporary queue.
	DeferPlacement = rt.DeferPlacement
)

// NewRuntime creates a runtime over a machine with the given policy.
func NewRuntime(m *Machine, pol Policy, opts RuntimeOptions) *Runtime {
	return rt.NewRuntime(m, pol, opts)
}

// DefaultRuntimeOptions returns the evaluation's runtime settings.
func DefaultRuntimeOptions() RuntimeOptions { return rt.DefaultOptions() }

// Experiments.
type (
	// Config describes one simulation run (app x policy x machine).
	Config = core.Config
	// RunResult couples a config with its statistics.
	RunResult = core.RunResult
	// Figure1Options tunes the Figure-1 reproduction.
	Figure1Options = core.Figure1Options
	// Table is a named-rows/columns result table.
	Table = metrics.Table
	// Scale selects a problem-size preset.
	Scale = apps.Scale

	// Experiment declares an evaluation grid (apps x policies x machines x
	// variants x seeds) executed on a shared worker pool with every cell
	// audited.
	Experiment = core.Experiment
	// ExperimentVariant is one runtime-option mutation axis value.
	ExperimentVariant = core.Variant
	// Cell identifies one run of an experiment grid.
	Cell = core.Cell
	// CellResult couples a cell with its config and statistics.
	CellResult = core.CellResult
	// Sink consumes streaming cell results in deterministic order.
	Sink = core.Sink
	// SinkFunc adapts a function to the Sink interface.
	SinkFunc = core.SinkFunc
	// TableSink aggregates cell results into a Table.
	TableSink = core.TableSink
	// TableOptions declares a TableSink's axes and normalization.
	TableOptions = core.TableOptions
	// Norm selects a TableSink value transformation.
	Norm = core.Norm
	// PolicySpec is a parsed policy registry spec (name + parameters).
	PolicySpec = policy.Spec
	// PolicyFactory builds a policy instance from a parsed spec.
	PolicyFactory = policy.Factory
)

// Table normalizations.
const (
	NormRaw     = core.NormRaw
	NormSpeedup = core.NormSpeedup
	NormRatio   = core.NormRatio
	NormBest    = core.NormBest
)

// RegisterPolicy adds a custom policy factory to the registry; the name is
// then usable in Config.Policy, Experiment.Policies and NewPolicy specs.
func RegisterPolicy(name string, f PolicyFactory) error { return policy.Register(name, f) }

// MustRegisterPolicy is RegisterPolicy, panicking on error.
func MustRegisterPolicy(name string, f PolicyFactory) { policy.MustRegister(name, f) }

// ParsePolicySpec parses "name?key=value&..." into a PolicySpec.
func ParsePolicySpec(s string) (PolicySpec, error) { return policy.ParseSpec(s) }

// RegisteredPolicies lists every registered policy name, sorted.
func RegisteredPolicies() []string { return policy.Names() }

// DeriveSeed is the evaluation-wide replicate-seed formula:
// base + 1000*replicate.
func DeriveSeed(base uint64, replicate int) uint64 { return core.DeriveSeed(base, replicate) }

// NewTableSink creates a streaming table aggregator.
func NewTableSink(opt TableOptions) *TableSink { return core.NewTableSink(opt) }

// NewJSONLSink streams one JSON object per cell result to w.
func NewJSONLSink(w io.Writer) Sink { return core.NewJSONLSink(w) }

// NewCSVSink streams one CSV row per cell result to w.
func NewCSVSink(w io.Writer) Sink { return core.NewCSVSink(w) }

// Problem scales.
const (
	ScaleTiny  = apps.Tiny
	ScaleSmall = apps.Small
	ScalePaper = apps.Paper
)

// DefaultConfig returns the evaluation settings for one run.
func DefaultConfig(app, policy string, scale Scale) Config {
	return core.DefaultConfig(app, policy, scale)
}

// Run executes one configuration.
func Run(cfg Config) (RunResult, error) { return core.Run(cfg) }

// Figure1 reproduces the paper's Figure 1 (speedups over LAS); optional
// extra sinks receive every cell result alongside the table aggregation.
func Figure1(opt Figure1Options, extra ...Sink) (*Table, error) { return core.Figure1(opt, extra...) }

// DefaultFigure1Options returns the paper-faithful Figure-1 settings.
func DefaultFigure1Options() Figure1Options { return core.DefaultFigure1Options() }

// App is a named benchmark task-graph generator.
type App = apps.App

// AppNames lists the eight benchmarks.
func AppNames() []string { return apps.Names() }

// AppByName instantiates a benchmark generator at the given scale; call its
// Build method on a Runtime to submit the task graph.
func AppByName(name string, s Scale) (App, error) { return apps.ByName(name, s) }

// Apps instantiates all eight benchmarks at the given scale.
func Apps(s Scale) []App { return apps.All(s) }

// Workloads.
type (
	// Workload is a named, seeded task-graph builder resolved from a
	// registry spec; its Build submits the graph and allocates its regions.
	Workload = workload.Workload
	// WorkloadSpec is a parsed workload registry spec (name + parameters).
	WorkloadSpec = workload.Spec
	// WorkloadFactory builds a Workload from a parsed spec, contextual
	// scale and generator seed.
	WorkloadFactory = workload.Factory
)

// RegisterWorkload adds a custom task-graph generator to the registry with
// a one-line doc string; the name is then usable in Config.App,
// Experiment.Apps and every command's workload flags, including
// parameterized forms "name?key=value".
func RegisterWorkload(name, doc string, f WorkloadFactory) error {
	return workload.Register(name, doc, f)
}

// MustRegisterWorkload is RegisterWorkload, panicking on error.
func MustRegisterWorkload(name, doc string, f WorkloadFactory) {
	workload.MustRegister(name, doc, f)
}

// NewWorkload resolves a workload spec ("jacobi", "forkjoin?depth=10",
// "file?path=g.json") at the given contextual scale. The reserved
// parameters scale= and seed= are handled here for every generator.
func NewWorkload(spec string, s Scale) (Workload, error) { return workload.New(spec, s) }

// WorkloadNames lists every registered workload name, sorted.
func WorkloadNames() []string { return workload.Names() }

// WorkloadDoc returns a registered workload's one-line documentation.
func WorkloadDoc(name string) (string, error) { return workload.Doc(name) }

// ParseWorkloadSpec parses "name?key=value&..." into a WorkloadSpec.
func ParseWorkloadSpec(s string) (WorkloadSpec, error) { return workload.ParseSpec(s) }

// PolicyNames lists the Figure-1 scheduling configurations.
func PolicyNames() []string { return append([]string(nil), core.PolicyNames...) }

// NewPolicy instantiates a policy from a registry spec — a built-in name
// (the paper's DFIFO, LAS, EP and RGP+LAS, plus RGP, which repartitions
// every window), a registered custom name, or a parameterized form like
// "RGP+LAS?matching=random".
func NewPolicy(spec string) (Policy, error) { return policy.New(spec) }

// Graph partitioning (the SCOTCH substitute), exposed for direct use.
type (
	// PGraph is the partitioner's undirected weighted graph.
	PGraph = partition.Graph
	// PartitionOptions tunes the multilevel pipeline.
	PartitionOptions = partition.Options
	// Arch is a target architecture for static mapping.
	Arch = partition.Arch
	// DAG is the task-dependency-graph structure.
	DAG = graph.DAG
	// NodeID indexes a DAG node.
	NodeID = graph.NodeID
)

// NewPGraph returns an empty partitioner graph with n vertices.
func NewPGraph(n int) *PGraph { return partition.NewGraph(n) }

// NewDAG returns an empty task dependency graph.
func NewDAG() *DAG { return graph.New() }

// FromDAG symmetrizes a DAG for partitioning.
func FromDAG(d *DAG) *PGraph { return partition.FromDAG(d) }

// DefaultPartitionOptions returns the RGP policies' partitioner settings.
func DefaultPartitionOptions(parts int) PartitionOptions {
	return partition.DefaultOptions(parts)
}

// Partition computes a k-way partition of g.
func Partition(g *PGraph, opt PartitionOptions) ([]int32, partition.Stats, error) {
	return partition.Partition(g, opt)
}

// MapOnto statically maps g onto a NUMA architecture (dual recursive
// bipartitioning).
func MapOnto(g *PGraph, arch *Arch, opt PartitionOptions) ([]int32, partition.Stats, error) {
	return partition.MapOnto(g, arch, opt)
}

// Tracer merges task, transfer, fluid-flow, link-utilization and
// cluster-dispatch events from any number of machines into one Chrome
// trace-event timeline (Perfetto-loadable). See the tracing quick start in
// the package documentation.
type Tracer = trace.Tracer

// NewTracer returns an empty multi-source tracer. Set it as Config.Trace,
// Experiment.Trace, Figure1Options.Trace or ClusterConfig.Trace, or trace a
// hand-built runtime by passing AttachMachine's observer in
// RuntimeOptions.Observer; after the run, WriteFile emits Chrome trace JSON
// and WriteGantt a text timeline. Tracing observes without perturbing: a
// fixed-seed run is bit-identical with or without it.
func NewTracer() *Tracer { return trace.NewTracer() }

// Service mode: online multi-tenant cluster simulation (cmd/dcsim).
type (
	// ClusterConfig describes one service-mode run: a fleet of identical
	// NUMA machines on one shared clock, tenants with open-loop arrival
	// processes, a dispatcher, and the per-job scheduling policy.
	ClusterConfig = cluster.Config
	// ClusterTenant declares one tenant's workload mix and arrival process
	// (poisson, diurnal or trace).
	ClusterTenant = cluster.Tenant
	// ClusterJob is one job of the arrival stream with its full service
	// timeline (submit/start/end, machine, slowdown, per-run statistics).
	ClusterJob = cluster.Job
	// ClusterResult is a completed service-mode run.
	ClusterResult = cluster.Result
	// ClusterStats aggregates streaming response/slowdown distributions,
	// per-tenant fairness and the utilization timeline.
	ClusterStats = cluster.Stats
	// ClusterObserver receives job lifecycle callbacks (submit, dispatch
	// with sampled candidates, start, complete) from a service-mode run.
	ClusterObserver = cluster.Observer
	// Histogram is an order-independent streaming quantile sketch with
	// bounded relative error (used for the tail-latency metrics).
	Histogram = metrics.Histogram
)

// RunCluster executes one service-mode simulation; per-job results stream
// through the same sinks batch experiments use (the job's tenant is the
// cell Variant, its arrival index the cell Index). A fixed seed makes the
// run bit-identical across repeats and across ClusterConfig.Procs.
func RunCluster(cfg ClusterConfig, sinks ...Sink) (*ClusterResult, error) {
	return cluster.Run(cfg, sinks...)
}
