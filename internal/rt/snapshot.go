package rt

import (
	"fmt"

	"numadag/internal/graph"
	"numadag/internal/memory"
)

// Snapshot captures the complete submission phase of a runtime — regions,
// tasks, dependence edges and barrier structure — so an identical task graph
// can be installed into fresh runtimes without re-running the generator or
// re-deriving dependences. A multi-seed sweep builds each workload's TDG
// once and installs it into every replicate's runtime.
//
// The TDG itself is shared between the snapshot and every runtime it is
// installed into: the graph is read-only once submission ends, so concurrent
// runs can hold the same *graph.DAG. The snapshot owns it: Snap takes it from
// the runtime that built it, and no runtime it is installed into resets or
// recycles it. Tasks and regions are mutated during execution (placement,
// first-touch), so Install materializes fresh ones.
//
// Window indices are not captured; Install replays the window state machine
// against the target runtime's own WindowSize, so one snapshot serves every
// window-size variant of an experiment.
type Snapshot struct {
	tdg     *graph.DAG
	regions []regionSnap
	tasks   []taskSnap
}

type regionSnap struct {
	name      string
	bytes     int64
	placement memory.Placement
	home      int
}

type accessSnap struct {
	region int32
	mode   AccessMode
}

type taskSnap struct {
	label    string
	flops    float64
	ep       int
	barrier  bool
	accesses []accessSnap
}

// Snap captures the submission phase of r. It must be called after the task
// graph is fully built and before Run. The snapshot takes r's dependency
// graph, compacted (graph.DAG.Compact) because it outlives the build: r gives
// the graph's storage up, so Releasing r afterwards recycles none of it and
// the next runtime drawn from the pool builds into fresh storage. r must
// not submit further tasks afterwards (it is typically a throwaway
// prototype runtime released after the capture).
//
// Every region a task accesses must come from r's own memory manager
// (r.Mem().Alloc); a builder that allocates elsewhere cannot be snapshotted.
func Snap(r *Runtime) (*Snapshot, error) {
	if r.running || r.ranAlready {
		return nil, fmt.Errorf("rt: Snap on a runtime that already ran")
	}
	regions := r.mem.Regions()
	rs := make([]regionSnap, len(regions))
	for i, reg := range regions {
		home := 0
		if reg.Placement() == memory.Home {
			home = int(reg.HomeOfPage(0))
		}
		rs[i] = regionSnap{name: reg.Name(), bytes: reg.Bytes(), placement: reg.Placement(), home: home}
	}
	// Every task's access list is carved from one slab, and barrierIDs is
	// in submission order, so one cursor marks the sync tasks.
	nAcc := 0
	for _, t := range r.tasks {
		nAcc += len(t.Accesses)
	}
	slab := make([]accessSnap, nAcc)
	ts := make([]taskSnap, len(r.tasks))
	nextBarrier := 0
	for i, t := range r.tasks {
		var acc []accessSnap
		if len(t.Accesses) > 0 {
			acc = slab[:len(t.Accesses):len(t.Accesses)]
			slab = slab[len(t.Accesses):]
			for j, a := range t.Accesses {
				id := a.Region.ID()
				if id < 0 || id >= len(regions) || regions[id] != a.Region {
					return nil, fmt.Errorf("rt: Snap: task %q accesses a region not allocated from the runtime's memory manager", t.Label)
				}
				acc[j] = accessSnap{region: int32(id), mode: a.Mode}
			}
		}
		barrier := nextBarrier < len(r.barrierIDs) && r.barrierIDs[nextBarrier] == t.ID
		if barrier {
			nextBarrier++
		}
		ts[i] = taskSnap{label: t.Label, flops: t.Flops, ep: t.EPSocket, barrier: barrier, accesses: acc}
	}
	r.tdg.Compact()
	if r.tdg == r.own {
		r.own = nil
	}
	return &Snapshot{tdg: r.tdg, regions: rs, tasks: ts}, nil
}

// Tasks returns the number of captured tasks.
func (s *Snapshot) Tasks() int { return len(s.tasks) }

// TotalFlops returns the summed compute work of the captured tasks — the
// work volume the cluster simulator's IdealDC fluid model charges a job
// built from this snapshot.
func (s *Snapshot) TotalFlops() float64 {
	var sum float64
	for i := range s.tasks {
		sum += s.tasks[i].flops
	}
	return sum
}

// Graph returns the captured task dependency graph. It is shared with every
// runtime the snapshot is installed into and must not be mutated.
func (s *Snapshot) Graph() *graph.DAG { return s.tdg }

// Install materializes the snapshot into a fresh runtime: regions are
// re-allocated (in the original order, so IDs match), tasks are recreated
// with their dependence counts taken from the shared graph (Run or Start
// links their successor lists from it, as for a Submit-built graph), and
// window indices are recomputed for the runtime's WindowSize. The result is
// bit-identical to rebuilding the same task graph through Submit. The
// runtime must be freshly created; after Install it can only Run, not
// Submit. The runtime runs on the snapshot's graph and leaves its own graph
// storage untouched, for a later build.
func (s *Snapshot) Install(r *Runtime) {
	if r.running || r.ranAlready {
		panic("rt: Install into a runtime that already ran")
	}
	if len(r.tasks) != 0 || len(r.mem.Regions()) != 0 {
		panic("rt: Install into a non-fresh runtime")
	}
	if cap(r.regScratch) < len(s.regions) {
		r.regScratch = make([]*memory.Region, len(s.regions))
	}
	regs := r.regScratch[:len(s.regions)]
	for i, rp := range s.regions {
		regs[i] = r.mem.Alloc(rp.name, rp.bytes, rp.placement, rp.home)
	}
	n := len(s.tasks)
	// Tasks and their access lists come out of the runtime's pooled arenas,
	// sized to the graph first; a slab of pointers holds the task list. All
	// are fully overwritten below, so recycling cannot leak state between
	// runs.
	nAcc := 0
	for i := range s.tasks {
		nAcc += len(s.tasks[i].accesses)
	}
	r.arena.reserve(n)
	r.accArena.reserve(nAcc)
	if cap(r.tasks) < n {
		r.tasks = make([]*Task, n)
	}
	tasks := r.tasks[:n]
	for i := range s.tasks {
		tp := &s.tasks[i]
		acc := r.accArena.take(len(tp.accesses))
		for j, a := range tp.accesses {
			acc[j] = Access{Region: regs[a.region], Mode: a.mode}
		}
		t := r.arena.next()
		*t = Task{
			ID:       graph.NodeID(i),
			Label:    tp.label,
			Flops:    tp.flops,
			Accesses: acc,
			EPSocket: tp.ep,
			Socket:   -1,
			Core:     -1,
			nDeps:    s.tdg.InDegree(graph.NodeID(i)),
			pickedBy: AnySocket,
		}
		// The window state machine is the one Submit and Barrier drive.
		if tp.barrier {
			t.Window = r.barrierWindow()
			r.barriers++
			r.barrierIDs = append(r.barrierIDs, t.ID)
			r.barrierTask = t
		} else {
			t.Window = r.nextWindowSlot()
		}
		tasks[i] = t
	}
	r.tdg = s.tdg
	r.tasks = tasks
	r.installed = true
}
