// Package workload is the registry of task-graph generators the evaluation
// draws its scenarios from — the benchmark-definition layer that PR 2's
// policy registry is to scheduling policies.
//
// A workload spec is a string, "name?key=value&key=value": the eight paper
// benchmarks ("jacobi", "qr?nt=32&tile=1M"), synthetic generators
// ("random-layered?layers=24&width=96&cv=0.4", "forkjoin?depth=8&fanout=3"),
// or DAGs imported from disk ("file?path=testdata/dags/diamond.json"). New
// resolves a spec to a Workload — a named, seeded TDG builder that submits
// the task graph and allocates its memory regions on an rt.Runtime. Every
// command and the core.Experiment grid accept workload specs wherever a bare
// app name used to go.
//
// Builders must be deterministic functions of (spec, scale, seed, machine
// topology) and must not read the runtime's own Rand or clock: that contract
// is what lets core.Experiment build a workload's TDG once (rt.Snap) and
// install it into every replicate of a sweep (rt.Install).
//
// Every workload sizes its graph before building it and returns an error
// above MaxTasks tasks or MaxBytes of regions (the synthetic generators and
// file imports also above MaxFlops per task and 2^62 flops in total), so no
// spec can ask for an unbounded build or a graph whose summed weight wraps
// int64; non-finite numbers are rejected by the spec grammar itself
// (Spec.Float).
package workload

import (
	"fmt"
	"strconv"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/spec"
)

// Workload is a named, seeded task-graph builder resolved from a spec.
type Workload struct {
	// Name is the registered generator name ("jacobi", "random-layered").
	Name string
	// Spec is the canonical spec string (parameters sorted, reserved
	// scale/seed parameters lifted out).
	Spec string
	// Scale is the problem-size preset the builder was resolved at.
	Scale apps.Scale
	// Seed drives the generator's own randomness (graph shape, task
	// weights). It is distinct from the runtime seed: replicates of a sweep
	// vary the runtime seed while the workload seed — and therefore the
	// task graph — stays fixed, which is what makes the TDG cacheable.
	Seed uint64
	// Build allocates the workload's regions from r.Mem() and submits its
	// task graph. It must be safe for concurrent use on distinct runtimes.
	Build func(r *rt.Runtime) error
}

// Key identifies the built task graph for caching: canonical spec, scale
// and generator seed. Callers combine it with the machine topology (expert
// placements and distributions depend on the socket count).
func (w Workload) Key() string {
	return fmt.Sprintf("%s@%s#%d", w.Spec, w.Scale, w.Seed)
}

// BuildInto runs Build on r and names the workload in a failure, as
// "workload: build <spec>: <cause>". Every path that builds a graph to run
// goes through it — Snapshot's prototype, and a run that builds its graph
// in place in its own runtime — so a failed build reads the same whichever
// path a run took.
func (w Workload) BuildInto(r *rt.Runtime) error {
	if err := w.Build(r); err != nil {
		return fmt.Errorf("workload: build %s: %w", w.Spec, err)
	}
	return nil
}

// prototype returns a fresh throwaway runtime over the given machine config
// with a no-op policy, for a build that is inspected or captured, not run.
func prototype(mc machine.Config) *rt.Runtime {
	return rt.NewRuntime(machine.New(mc, sim.NewEngine()), nopPolicy{}, rt.Options{})
}

// Instantiate builds the workload into a prototype runtime — the path dagen
// and dagpart use to inspect or export a TDG. A failed build returns
// Build's own error.
func (w Workload) Instantiate(mc machine.Config) (*rt.Runtime, error) {
	r := prototype(mc)
	if err := w.Build(r); err != nil {
		return nil, err
	}
	return r, nil
}

// Snapshot builds the workload on a prototype runtime and captures its task
// graph (rt.Snap) for installation into real runs — the builder behind
// cluster's prebuild and core's experiment pool, for the graphs several
// runs share. rt.Snap copies the graph into the snapshot's own storage, and
// the prototype, with its build storage, goes back to the runtime pool.
func (w Workload) Snapshot(mc machine.Config) (*rt.Snapshot, error) {
	r := prototype(mc)
	if err := w.BuildInto(r); err != nil {
		return nil, err
	}
	snap, err := rt.Snap(r)
	if err != nil {
		return nil, err
	}
	r.Release()
	return snap, nil
}

type nopPolicy struct{}

func (nopPolicy) Name() string                         { return "nop" }
func (nopPolicy) PickSocket(*rt.Runtime, *rt.Task) int { return 0 }

// Spec is a parsed workload specification: a registered generator name plus
// optional parameters, written "name?key=value&key=value" — the grammar of
// package spec, which the policy registry shares. Two parameter keys are
// reserved and handled by New for every workload: "scale" overrides the
// contextual problem scale ("jacobi?scale=paper") and "seed" sets the
// generator seed for stochastic builders ("random-layered?seed=7").
// Factories never see them, so Spec.Only need not list them.
type Spec = spec.Spec

// ParseSpec parses "name" or "name?key=value&key=value" (see package spec).
func ParseSpec(s string) (Spec, error) { return registry.Parse(s) }

// Factory resolves a parsed spec into a Workload. The reserved scale and
// seed parameters are already stripped from the spec and passed explicitly.
// New fills the Name/Spec/Scale/Seed metadata after the factory returns, so
// factories only need to produce Build.
type Factory func(s Spec, scale apps.Scale, seed uint64) (Workload, error)

var registry = spec.NewRegistry[Factory]("workload")

// Register adds a workload factory under a name with a one-line doc string
// (shown by dagen -list/-describe). It errors on empty or already-registered
// names and on names that would not survive spec parsing. Registration is
// typically done from init or before experiments start; it is safe for
// concurrent use.
func Register(name, doc string, f Factory) error { return registry.Register(name, doc, f) }

// MustRegister is Register, panicking on error (init-time registration).
func MustRegister(name, doc string, f Factory) { registry.MustRegister(name, doc, f) }

// New resolves a workload spec at the given contextual scale. The reserved
// parameters are handled here for every generator: "scale=tiny|small|paper"
// overrides scale, "seed=N" sets the generator seed (default 1).
func New(spec string, scale apps.Scale) (Workload, error) {
	s, err := registry.Parse(spec)
	if err != nil {
		return Workload{}, err
	}
	seed := uint64(1)
	if v, ok := s.Params["seed"]; ok {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return Workload{}, fmt.Errorf("workload: %s: seed=%q is not an unsigned integer", s.Name, v)
		}
		seed = n
		delete(s.Params, "seed")
	}
	if v, ok := s.Params["scale"]; ok {
		sc, err := apps.ParseScale(v)
		if err != nil {
			return Workload{}, fmt.Errorf("workload: %s: %w", s.Name, err)
		}
		scale = sc
		delete(s.Params, "scale")
	}
	f, err := registry.Lookup(s.Name)
	if err != nil {
		return Workload{}, err
	}
	w, err := f(s, scale, seed)
	if err != nil {
		return Workload{}, err
	}
	w.Name = s.Name
	w.Spec = s.String()
	w.Scale = scale
	w.Seed = seed
	return w, nil
}

// Names returns the registered workload names, sorted.
func Names() []string { return registry.Names() }

// Doc returns the registered one-line documentation for a workload name.
func Doc(name string) (string, error) { return registry.Doc(name) }
