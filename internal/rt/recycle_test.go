package rt

import (
	"testing"

	"numadag/internal/machine"
	"numadag/internal/sim"
)

// checkInert demands that a runtime's pooled build state — the dependence
// trackers, including the spare capacity of every readers list, every slot
// of every task-arena slab and every slot of every access-arena slab —
// holds no *Task, no task data and no *memory.Region, and that the runtime
// holds no snapshot (whose graph and shared values the experiment cache may
// have dropped).
func checkInert(t *testing.T, step string, r *Runtime) {
	t.Helper()
	if r.snap != nil {
		t.Fatalf("%s: runtime keeps its installed snapshot", step)
	}
	if len(r.tracks) != 0 {
		t.Fatalf("%s: %d live trackers", step, len(r.tracks))
	}
	for i, tr := range r.tracks[:cap(r.tracks)] {
		if tr.lastWriter != nil {
			t.Fatalf("%s: tracker %d keeps writer %q", step, i, tr.lastWriter.Label)
		}
		for j, rd := range tr.readers[:cap(tr.readers)] {
			if rd != nil {
				t.Fatalf("%s: tracker %d reader slot %d keeps task %q", step, i, j, rd.Label)
			}
		}
	}
	if r.own != nil && (r.own.Len() != 0 || r.own.Edges() != 0) {
		t.Fatalf("%s: own graph keeps %d nodes, %d edges", step, r.own.Len(), r.own.Edges())
	}
	if r.arena.cur != 0 || r.arena.used != 0 {
		t.Fatalf("%s: arena not rewound (slab %d, slot %d)", step, r.arena.cur, r.arena.used)
	}
	for i, slab := range r.arena.slabs {
		for j := range slab {
			if tk := &slab[j]; tk.Label != "" || tk.Accesses != nil || tk.succs != nil || tk.ID != 0 {
				t.Fatalf("%s: arena slab %d slot %d keeps task %d %q", step, i, j, tk.ID, tk.Label)
			}
		}
	}
	if r.accArena.cur != 0 || r.accArena.used != 0 {
		t.Fatalf("%s: access arena not rewound (slab %d, slot %d)", step, r.accArena.cur, r.accArena.used)
	}
	for i, slab := range r.accArena.slabs {
		for j, a := range slab {
			if a.Region != nil {
				t.Fatalf("%s: access arena slab %d slot %d keeps region %q", step, i, j, a.Region.Name())
			}
		}
	}
}

// TestReleaseLeavesNoStaleTasks pins the recycling contract of the Submit
// path: after Release, and in the runtime NewRuntime draws from the pool,
// the trackers and the task arena reference no task of the previous build,
// and the access arena no region. A stale *Task there keeps that build's
// graph and arena slabs alive for as long as the runtime sits in the pool,
// and a stale *Region the regions of a memory manager reset since.
func TestReleaseLeavesNoStaleTasks(t *testing.T) {
	m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	for _, run := range []bool{false, true} {
		r := NewRuntime(m, cyclic{}, Options{WindowSize: 4, Seed: 1})
		buildMixed(r, true)
		buildLayeredRT(r, 30, 10) // grows both arenas past their first slabs
		if len(r.arena.slabs) < 2 || len(r.accArena.slabs) < 2 || len(r.tracks) == 0 {
			t.Fatalf("build left %d task slabs, %d access slabs, %d trackers: too small to test",
				len(r.arena.slabs), len(r.accArena.slabs), len(r.tracks))
		}
		if run {
			r.Run() // links every successor list into the arena's tasks
			m.Reset()
		}
		r.Release()
		checkInert(t, "after Release", r)
		r2 := NewRuntime(m, cyclic{}, Options{WindowSize: 4, Seed: 1})
		if r2 == r { // the pool may drop r (always possible under -race)
			checkInert(t, "after NewRuntime", r2)
		}
		// The recycled runtime builds and runs.
		buildMixed(r2, true)
		res := r2.Run()
		m.Reset()
		if res.TasksRun != len(r2.tasks) || len(r2.tasks) == 0 {
			t.Fatalf("recycled runtime ran %d of %d tasks", res.TasksRun, len(r2.tasks))
		}
		r2.Release()
	}
}

// TestGraphStorageOwnership pins who owns a task graph's storage. A runtime
// building through Submit builds into storage it keeps through the pool:
// Release resets it and the next NewRuntime from the pool builds into it
// again. Snap takes the graph with the snapshot, so the prototype's Release
// leaves it whole. A runtime a snapshot is installed into runs on the
// snapshot's graph and leaves its own storage to a later build.
func TestGraphStorageOwnership(t *testing.T) {
	m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	opts := Options{WindowSize: 4, Seed: 1}

	r := NewRuntime(m, cyclic{}, opts)
	own := r.Graph()
	buildLayeredRT(r, 6, 5)
	r.Release()
	if own.Len() != 0 {
		t.Fatalf("Release left %d nodes in the runtime's own graph", own.Len())
	}
	if r2 := NewRuntime(m, cyclic{}, opts); r2 == r && r2.Graph() != own {
		t.Fatal("a pooled runtime did not build into the graph storage it kept")
	} else {
		r2.Release()
	}

	proto := NewRuntime(m, cyclic{}, opts)
	buildMixed(proto, true)
	n, edges := proto.Graph().Len(), proto.Graph().Edges()
	snap, err := Snap(proto)
	if err != nil {
		t.Fatal(err)
	}
	proto.Release()
	if g := snap.Graph(); g.Len() != n || g.Edges() != edges {
		t.Fatalf("releasing the prototype changed the snapshot's graph: %d nodes, %d edges, want %d, %d",
			g.Len(), g.Edges(), n, edges)
	}
	if r3 := NewRuntime(m, cyclic{}, opts); r3 == proto && r3.Graph() == snap.Graph() {
		t.Fatal("a pooled runtime builds into the graph a snapshot took")
	} else {
		r3.Release()
	}

	r4 := NewRuntime(m, cyclic{}, opts)
	own4 := r4.own
	snap.Install(r4)
	if r4.Graph() != snap.Graph() || r4.own != own4 || own4.Len() != 0 {
		t.Fatal("Install did not leave the runtime's own graph storage untouched")
	}
	if r4.snap != snap {
		t.Fatal("Install did not record the snapshot")
	}
	r4.Run()
	m.Reset()
	r4.Release()
	checkInert(t, "after releasing an installed runtime", r4)
	if g := snap.Graph(); g.Len() != n || g.Edges() != edges {
		t.Fatalf("releasing an installed runtime changed the snapshot's graph: %d nodes, %d edges, want %d, %d",
			g.Len(), g.Edges(), n, edges)
	}
}
