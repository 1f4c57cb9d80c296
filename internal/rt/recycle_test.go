package rt

import (
	"slices"
	"strings"
	"testing"

	"numadag/internal/machine"
	"numadag/internal/sim"
)

// checkInert demands that a runtime's pooled build state — the dependence
// trackers, including the spare capacity of every readers list, every slot
// of every task-arena slab and every slot of every access-arena slab —
// holds no *Task, no task data and no *memory.Region, and that the runtime
// holds no snapshot (whose graph and shared values the experiment's pool
// may have recycled).
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
			t.Fatalf("%s: tracker %d keeps writer %q", step, i, tr.lastWriter.Label())
		}
		for j, rd := range tr.readers[:cap(tr.readers)] {
			if rd != nil {
				t.Fatalf("%s: tracker %d reader slot %d keeps task %q", step, i, j, rd.Label())
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
			if tk := &slab[j]; tk.tdg != nil || tk.Accesses != nil || tk.succs != nil || tk.ID != 0 {
				t.Fatalf("%s: arena slab %d slot %d keeps task %d", step, i, j, tk.ID)
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
// again. Snap copies the graph, its labels and its region names into the
// snapshot's own storage, so the prototype keeps its build storage too,
// and releasing it and building another graph there leaves the snapshot
// whole. A runtime a snapshot is installed into runs on the snapshot's
// graph and leaves its own storage to a later build.
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
	protoOwn := proto.Graph()
	buildMixed(proto, true)
	n, edges := protoOwn.Len(), protoOwn.Edges()
	protoNames := namesOf(proto)
	snap, err := Snap(proto)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Graph() == protoOwn || proto.own != protoOwn || proto.Graph() != protoOwn {
		t.Fatal("Snap took the prototype's graph storage instead of copying it")
	}
	proto.Release()
	if protoOwn.Len() != 0 {
		t.Fatalf("releasing the prototype left %d nodes in its own graph", protoOwn.Len())
	}
	if g := snap.Graph(); g.Len() != n || g.Edges() != edges {
		t.Fatalf("releasing the prototype changed the snapshot's graph: %d nodes, %d edges, want %d, %d",
			g.Len(), g.Edges(), n, edges)
	}
	if r3 := NewRuntime(m, cyclic{}, opts); r3 == proto && r3.Graph() != protoOwn {
		t.Fatal("a pooled prototype did not build into the graph storage it kept")
	} else {
		buildLayeredRT(r3, 4, 3) // other labels and region names, in the prototype's storage
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
	if got := namesOf(r4); !slices.Equal(got, protoNames) {
		t.Fatalf("the snapshot installs names %q after its prototype's storage built another graph, want %q", got, protoNames)
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

// checkRecycled demands that a recycled snapshot's storage — its region
// and task arrays up to their capacity — references no access list of the
// graph it held, that it keeps no region name or shared value, and that its
// graph is reset (graph.TestResetRebuildMatchesFresh pins that a reset
// graph keeps no label or adjacency list).
func checkRecycled(t *testing.T, step string, s *Snapshot) {
	t.Helper()
	if !s.recycled {
		t.Fatalf("%s: snapshot not marked recycled", step)
	}
	if g := s.tdg; g.Len() != 0 || g.Edges() != 0 {
		t.Fatalf("%s: recycled graph keeps %d nodes, %d edges", step, g.Len(), g.Edges())
	}
	if s.names.Len() != 0 {
		t.Fatalf("%s: recycled snapshot keeps %d region names", step, s.names.Len())
	}
	for i, rs := range s.regions[:cap(s.regions)] {
		if rs != (regionSnap{}) {
			t.Fatalf("%s: recycled region slot %d keeps %+v", step, i, rs)
		}
	}
	for i, ts := range s.tasks[:cap(s.tasks)] {
		if ts.accesses != nil {
			t.Fatalf("%s: recycled task slot %d keeps its access list", step, i)
		}
	}
	if len(s.shared) != 0 {
		t.Fatalf("%s: recycled snapshot keeps %d shared values", step, len(s.shared))
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// namesOf returns every task label of r, in submission order, then every
// region name, in allocation order.
func namesOf(r *Runtime) []string {
	var out []string
	for _, t := range r.tasks {
		out = append(out, t.Label())
	}
	for _, reg := range r.mem.Regions() {
		out = append(out, reg.Name())
	}
	return out
}

// TestRecycledSnapshotMatchesFresh pins Snapshot.Recycle. Graphs that grow,
// shrink and grow again are each snapshotted twice: into new storage, with
// the free list empty, and into the storage of the previous graph's
// snapshot, recycled. Both must install runs identical to each other, with
// the labels and region names of a fresh build, and the recycled storage
// must be reused, reference nothing of the graph it held (labels, region
// names, adjacency, access lists, shared values), and refuse a second
// Recycle and an Install while it waits on the free list. Labels and
// region names read from a run before its runtime is released and its
// snapshot recycled keep their values once that storage holds the next
// graph.
func TestRecycledSnapshotMatchesFresh(t *testing.T) {
	builds := []struct {
		name  string
		build func(*Runtime)
	}{
		{"layered-6x5", func(r *Runtime) { buildLayeredRT(r, 6, 5) }},
		{"mixed", func(r *Runtime) { buildMixed(r, false) }},
		{"layered-20x12", func(r *Runtime) { buildLayeredRT(r, 20, 12) }},
		{"mixed-barriers", func(r *Runtime) { buildMixed(r, true) }},
		{"layered-2x3", func(r *Runtime) { buildLayeredRT(r, 2, 3) }},
		{"layered-30x16", func(r *Runtime) { buildLayeredRT(r, 30, 16) }},
	}
	snapOf := func(build func(*Runtime)) *Snapshot {
		proto := newSnapRT(pinned(0), Options{})
		build(proto)
		s, err := Snap(proto)
		if err != nil {
			t.Fatal(err)
		}
		proto.Release()
		return s
	}
	opts := Options{WindowSize: 5, Seed: 4, Steal: true, StealThreshold: 1}
	key := []byte("test-key")
	var prev *Snapshot
	// kept holds the names read from the previous graph's recycled run,
	// keptWant a copy of their bytes taken when they were read.
	var kept, keptWant []string
	for _, b := range builds {
		for snapshotPool.Get() != nil {
		}
		fresh := snapOf(b.build)
		if prev != nil {
			prev.Recycle()
			checkRecycled(t, b.name+": after Recycle", prev)
			mustPanic(t, b.name+": a second Recycle", prev.Recycle)
			mustPanic(t, b.name+": Install of a recycled snapshot", func() { prev.Install(newSnapRT(cyclic{}, opts)) })
		}
		reused := snapOf(b.build)
		if prev != nil && reused != prev {
			t.Fatalf("%s: Snap did not reuse the recycled snapshot", b.name)
		}
		want, got := newSnapRT(cyclic{}, opts), newSnapRT(cyclic{}, opts)
		fresh.Install(want)
		reused.Install(got)
		built := newSnapRT(cyclic{}, opts)
		b.build(built)
		if n, w := namesOf(got), namesOf(built); !slices.Equal(n, w) {
			t.Fatalf("%s: run installed from recycled storage names %q, a fresh build %q", b.name, n, w)
		}
		if !slices.Equal(kept, keptWant) {
			t.Fatalf("%s: names read before the storage was refilled changed to %q, want %q", b.name, kept, keptWant)
		}
		kept = namesOf(got)
		keptWant = make([]string, len(kept))
		for i, n := range kept {
			keptWant[i] = strings.Clone(n) // the bytes as read, copied at once
		}
		built.Release()
		// The graph's shared value is built anew, not read from the graph
		// the storage held before.
		builtFor := reused.Tasks()
		if v := got.Shared(key, func() any { return builtFor }); v != builtFor {
			t.Fatalf("%s: Shared returned %v, a value kept from an earlier graph; want %d", b.name, v, builtFor)
		}
		requireSameRun(t, b.name, want, got)
		want.Release()
		got.Release()
		prev = reused
	}
}
