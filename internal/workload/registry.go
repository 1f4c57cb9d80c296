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
	"sort"
	"strconv"
	"strings"
	"sync"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
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

// Instantiate builds the workload into a fresh throwaway runtime over the
// given machine config with a no-op policy — the path dagen and dagpart use
// to inspect or export a TDG, and Snapshot uses to prototype one.
func (w Workload) Instantiate(mc machine.Config) (*rt.Runtime, error) {
	r := rt.NewRuntime(machine.New(mc, sim.NewEngine()), nopPolicy{}, rt.Options{})
	if err := w.Build(r); err != nil {
		return nil, err
	}
	return r, nil
}

// Snapshot builds the workload on a throwaway prototype runtime and
// captures its task graph (rt.Snap) for installation into real runs — the
// one builder behind core's experiment cache and cluster's prebuild.
func (w Workload) Snapshot(mc machine.Config) (*rt.Snapshot, error) {
	r, err := w.Instantiate(mc)
	if err != nil {
		return nil, fmt.Errorf("workload: build %s: %w", w.Spec, err)
	}
	snap, err := rt.Snap(r)
	if err != nil {
		return nil, err
	}
	// The snapshot copies task/region state and borrows only the TDG, which
	// Release does not recycle — the prototype runtime's scratch can go back
	// to the pool.
	r.Release()
	return snap, nil
}

type nopPolicy struct{}

func (nopPolicy) Name() string                         { return "nop" }
func (nopPolicy) PickSocket(*rt.Runtime, *rt.Task) int { return 0 }

// Factory resolves a parsed spec into a Workload. The reserved scale and
// seed parameters are already stripped from the spec and passed explicitly.
// New fills the Name/Spec/Scale/Seed metadata after the factory returns, so
// factories only need to produce Build.
type Factory func(s Spec, scale apps.Scale, seed uint64) (Workload, error)

type entry struct {
	doc     string
	factory Factory
}

var registry = struct {
	sync.RWMutex
	entries map[string]entry
}{entries: make(map[string]entry)}

// Register adds a workload factory under a name with a one-line doc string
// (shown by dagen -list/-describe). It errors on empty or already-registered
// names and on names that would not survive spec parsing. Registration is
// typically done from init or before experiments start; it is safe for
// concurrent use.
func Register(name, doc string, f Factory) error {
	if name == "" || strings.ContainsAny(name, "?&= \t\n") {
		return fmt.Errorf("workload: invalid registry name %q", name)
	}
	if f == nil {
		return fmt.Errorf("workload: nil factory for %q", name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.entries[name]; dup {
		return fmt.Errorf("workload: %q already registered", name)
	}
	registry.entries[name] = entry{doc: doc, factory: f}
	return nil
}

// MustRegister is Register, panicking on error (init-time registration).
func MustRegister(name, doc string, f Factory) {
	if err := Register(name, doc, f); err != nil {
		panic(err)
	}
}

// New resolves a workload spec at the given contextual scale. The reserved
// parameters are handled here for every generator: "scale=tiny|small|paper"
// overrides scale, "seed=N" sets the generator seed (default 1).
func New(spec string, scale apps.Scale) (Workload, error) {
	s, err := ParseSpec(spec)
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
	registry.RLock()
	e, ok := registry.entries[s.Name]
	registry.RUnlock()
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown workload %q (registered: %s)",
			s.Name, strings.Join(Names(), ", "))
	}
	w, err := e.factory(s, scale, seed)
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
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	ns := make([]string, 0, len(registry.entries))
	for n := range registry.entries {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Doc returns the registered one-line documentation for a workload name.
func Doc(name string) (string, error) {
	registry.RLock()
	defer registry.RUnlock()
	e, ok := registry.entries[name]
	if !ok {
		return "", fmt.Errorf("workload: unknown workload %q", name)
	}
	return e.doc, nil
}
