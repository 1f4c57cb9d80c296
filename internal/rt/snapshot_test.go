package rt

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/sim"
)

// buildMixed submits a small but structurally rich task graph: deferred,
// interleaved and home-placed regions, RAW/WAR/WAW chains, EP hints, and
// (optionally) barriers.
func buildMixed(r *Runtime, barriers bool) {
	a := r.Mem().Alloc("a", 64<<10, memory.Deferred, 0)
	b := r.Mem().Alloc("b", 32<<10, memory.Interleave, 0)
	c := r.Mem().Alloc("c", 16<<10, memory.Home, 1)
	for i := 0; i < 6; i++ {
		r.Submit(TaskSpec{
			Label:    fmt.Sprintf("init%d", i),
			Flops:    2000,
			Accesses: []Access{{Region: a, Mode: Out}},
			EPSocket: i % 2,
		})
	}
	if barriers {
		r.Barrier()
	}
	for i := 0; i < 8; i++ {
		acc := []Access{{Region: a, Mode: In}, {Region: b, Mode: InOut}}
		if i%3 == 0 {
			acc = append(acc, Access{Region: c, Mode: Out})
		}
		r.Submit(TaskSpec{
			Label:    fmt.Sprintf("work%d", i),
			Flops:    4000 + float64(i)*100,
			Accesses: acc,
			EPSocket: NoEPHint,
		})
	}
	if barriers {
		r.Barrier()
		r.Submit(TaskSpec{
			Label:    "final",
			Flops:    1000,
			Accesses: []Access{{Region: c, Mode: In}},
			EPSocket: NoEPHint,
		})
	}
}

func newSnapRT(pol Policy, opts Options) *Runtime {
	return NewRuntime(machine.New(machine.TwoSocketXeon(), sim.NewEngine()), pol, opts)
}

// TestSnapshotInstallEquivalence demands that a snapshot installed into a
// fresh runtime is indistinguishable from rebuilding through Submit: same
// windows, dependence counts, successor order, and a bit-identical run.
// Successor lists are linked from the TDG when Run starts, so their order is
// compared once both runtimes have run.
func TestSnapshotInstallEquivalence(t *testing.T) {
	for _, barriers := range []bool{false, true} {
		for _, ws := range []int{0, 3, 5, 2048} {
			name := fmt.Sprintf("barriers=%v/ws=%d", barriers, ws)
			opts := Options{WindowSize: ws, Seed: 7, Steal: true, StealThreshold: 2}

			direct := newSnapRT(cyclic{}, opts)
			buildMixed(direct, barriers)

			proto := newSnapRT(pinned(0), Options{}) // options don't matter for capture
			buildMixed(proto, barriers)
			snap, err := Snap(proto)
			if err != nil {
				t.Fatalf("%s: Snap: %v", name, err)
			}
			installed := newSnapRT(cyclic{}, opts)
			snap.Install(installed)
			requireSameRun(t, name, direct, installed)
		}
	}
}

// requireSameRun demands that two runtimes holding the same task graph,
// neither run yet, agree on every task's label, work, EP hint, window,
// dependence count and accesses and on the barrier count, then runs both and
// demands bit-identical results, the same successor lists in the same order
// and the same number of engine steps.
func requireSameRun(t *testing.T, name string, want, got *Runtime) {
	t.Helper()
	if len(want.tasks) != len(got.tasks) {
		t.Fatalf("%s: task count %d vs %d", name, len(want.tasks), len(got.tasks))
	}
	for i := range want.tasks {
		d, in := want.tasks[i], got.tasks[i]
		if d.Label() != in.Label() || d.Flops != in.Flops || d.EPSocket != in.EPSocket ||
			d.Window != in.Window || d.nDeps != in.nDeps {
			t.Fatalf("%s: task %d differs: want {%s f=%v ep=%d w=%d deps=%d} got {%s f=%v ep=%d w=%d deps=%d}",
				name, i, d.Label(), d.Flops, d.EPSocket, d.Window, d.nDeps,
				in.Label(), in.Flops, in.EPSocket, in.Window, in.nDeps)
		}
		if len(d.Accesses) != len(in.Accesses) {
			t.Fatalf("%s: task %d access count differs", name, i)
		}
		for j := range d.Accesses {
			da, ia := d.Accesses[j], in.Accesses[j]
			if da.Mode != ia.Mode || da.Region.ID() != ia.Region.ID() || da.Region.Name() != ia.Region.Name() ||
				da.Region.Bytes() != ia.Region.Bytes() || da.Region.Placement() != ia.Region.Placement() {
				t.Fatalf("%s: task %d access %d differs", name, i, j)
			}
		}
	}
	if want.barriers != got.barriers {
		t.Fatalf("%s: barriers %d vs %d", name, want.barriers, got.barriers)
	}

	wRes := want.Run()
	gRes := got.Run()
	if !reflect.DeepEqual(wRes, gRes) {
		t.Fatalf("%s: run results diverge:\nwant: %+v\ngot:  %+v", name, wRes, gRes)
	}
	linked := 0
	for i := range want.tasks {
		d, in := want.tasks[i], got.tasks[i]
		if len(d.succs) != len(in.succs) || len(d.succs) != want.tdg.OutDegree(d.ID) {
			t.Fatalf("%s: task %d: %d vs %d successors, %d in the TDG",
				name, i, len(d.succs), len(in.succs), want.tdg.OutDegree(d.ID))
		}
		for j := range d.succs {
			if d.succs[j].ID != in.succs[j].ID {
				t.Fatalf("%s: task %d succ %d: %d vs %d", name, i, j, d.succs[j].ID, in.succs[j].ID)
			}
		}
		linked += len(d.succs)
	}
	if linked == 0 && want.tdg.Edges() > 0 {
		t.Fatalf("%s: no successor lists were linked", name)
	}
	wSteps := want.mach.Engine().Steps()
	gSteps := got.mach.Engine().Steps()
	if wSteps != gSteps {
		t.Fatalf("%s: engine steps %d vs %d", name, wSteps, gSteps)
	}
}

// TestSnapshotSharedAcrossRuns installs one snapshot into several runtimes
// and checks they all reproduce the direct run (the access pattern of an
// Experiment's shared graphs, minus concurrency — the race detector covers that via the
// core tests).
func TestSnapshotSharedAcrossRuns(t *testing.T) {
	proto := newSnapRT(pinned(0), Options{})
	buildMixed(proto, false)
	snap, err := Snap(proto)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{WindowSize: 4, Seed: 3, Steal: true, StealThreshold: 1}
	direct := newSnapRT(cyclic{}, opts)
	buildMixed(direct, false)
	want := direct.Run()
	for i := 0; i < 3; i++ {
		r := newSnapRT(cyclic{}, opts)
		snap.Install(r)
		if got := r.Run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("install %d diverged: %+v vs %+v", i, got, want)
		}
	}
}

// TestSnapshotConcurrentInstall installs one snapshot into independent
// runtimes from many goroutines at once — the experiment worker pool's
// access pattern. All runtimes share the captured *graph.DAG read-only;
// under -race this pins the contract that Install and Run never write
// through it (and that the runtime pool hands concurrent callers disjoint
// runtimes).
func TestSnapshotConcurrentInstall(t *testing.T) {
	proto := newSnapRT(pinned(0), Options{})
	buildMixed(proto, true)
	snap, err := Snap(proto)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{WindowSize: 4, Seed: 9, Steal: true, StealThreshold: 1}
	direct := newSnapRT(cyclic{}, opts)
	buildMixed(direct, true)
	want := direct.Run()

	const workers = 8
	results := make([]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				r := newSnapRT(cyclic{}, opts)
				snap.Install(r)
				results[w] = r.Run()
				r.Release()
			}
		}(w)
	}
	wg.Wait()
	for w, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("worker %d diverged: %+v vs %+v", w, got, want)
		}
	}
}

func TestSnapshotGuards(t *testing.T) {
	proto := newSnapRT(pinned(0), Options{})
	buildMixed(proto, false)
	snap, err := Snap(proto)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tasks() == 0 || snap.Graph().Len() != snap.Tasks() {
		t.Fatalf("snapshot shape: %d tasks, %d graph nodes", snap.Tasks(), snap.Graph().Len())
	}

	// Submit after Install must panic: the dependence trackers were never
	// populated, so silent acceptance would drop edges.
	r := newSnapRT(pinned(0), Options{})
	snap.Install(r)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Submit after Install did not panic")
			}
		}()
		r.Submit(TaskSpec{Label: "late"})
	}()

	// Install into a non-fresh runtime must panic.
	dirty := newSnapRT(pinned(0), Options{})
	dirty.Submit(TaskSpec{Label: "x"})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Install into non-fresh runtime did not panic")
			}
		}()
		snap.Install(dirty)
	}()

	// Snap after Run must fail.
	ran := newSnapRT(pinned(0), Options{})
	buildMixed(ran, false)
	ran.Run()
	if _, err := Snap(ran); err == nil {
		t.Error("Snap after Run did not fail")
	}

	// Regions from a foreign memory manager are rejected.
	foreign := newSnapRT(pinned(0), Options{})
	other := memory.NewManager(2)
	reg := other.Alloc("foreign", 4096, memory.Deferred, 0)
	foreign.Submit(TaskSpec{Label: "f", Accesses: []Access{{Region: reg, Mode: Out}}})
	if _, err := Snap(foreign); err == nil {
		t.Error("Snap with foreign region did not fail")
	}
}
