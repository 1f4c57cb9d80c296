package rt

import (
	"fmt"
	"sync"

	"numadag/internal/freelist"
	"numadag/internal/graph"
	"numadag/internal/memory"
	"numadag/internal/names"
)

// Snapshot captures the complete submission phase of a runtime — regions,
// tasks, dependence edges and barrier structure — so an identical task graph
// can be installed into fresh runtimes without re-running the generator or
// re-deriving dependences. A multi-seed sweep builds each workload's TDG
// once and installs it into every replicate's runtime.
//
// The TDG itself is shared between the snapshot and every runtime it is
// installed into: the graph is read-only once submission ends, so concurrent
// runs can hold the same *graph.DAG, and read their tasks' labels from it.
// The snapshot owns its graph and the arrays that describe its regions
// (names included), tasks and access lists: Snap copies them out of the
// runtime that built them, and no runtime the snapshot is installed into
// resets or reuses them. Tasks and regions are mutated during
// execution (placement, first-touch), so Install materializes fresh ones.
// The storage itself comes from a free list of recycled snapshots (see
// Recycle); a snapshot nobody recycles is left to the garbage collector.
//
// Window indices are not captured; Install replays the window state machine
// against the target runtime's own WindowSize, so one snapshot serves every
// window-size variant of an experiment.
//
// A snapshot also keeps the values its runtimes compute through
// Runtime.Shared, one per key, until it is recycled or collected.
type Snapshot struct {
	tdg     *graph.DAG
	regions []regionSnap
	// names holds region i's name as its name i (the task labels are in
	// tdg).
	names names.List
	tasks []taskSnap
	// acc backs every task's access list.
	acc []accessSnap
	// recycled marks a snapshot waiting on the free list: Install and a
	// second Recycle panic on it.
	recycled bool

	mu     sync.Mutex
	shared map[string]*sharedValue
}

// snapshotPool holds recycled snapshots, whose storage Snap fills again. Like
// the runtime pool it is never emptied by the garbage collector, so it holds
// at most as many snapshots as were ever live at once.
var snapshotPool freelist.List[Snapshot]

// sharedValue is one key's entry of Snapshot.shared: once runs the build,
// and a build that panicked leaves its panic value for every later caller.
type sharedValue struct {
	once     sync.Once
	done     bool // the build returned val
	val      any
	panicked any
}

type regionSnap struct {
	bytes     int64
	placement memory.Placement
	home      int
}

type accessSnap struct {
	region int32
	mode   AccessMode
}

type taskSnap struct {
	flops    float64
	ep       int
	barrier  bool
	accesses []accessSnap
}

// Snap captures the submission phase of r. It must be called after the task
// graph is fully built and before Run. The snapshot copies what it keeps —
// the dependency graph, compacted (graph.DAG.CompactInto) because it
// outlives the build, and the region, task and access arrays — into the
// storage of a recycled snapshot when the free list has one, and into new,
// exactly sized storage when not. r keeps its own build storage, so
// Releasing r afterwards hands its graph's node arrays and adjacency chunks
// to the next runtime drawn from the pool, as after an in-place build. r
// must not submit further tasks afterwards (it is typically a throwaway
// prototype runtime released after the capture).
//
// Every region a task accesses must come from r's own memory manager
// (r.Mem().Alloc); a builder that allocates elsewhere cannot be snapshotted.
func Snap(r *Runtime) (*Snapshot, error) {
	if r.running || r.ranAlready {
		return nil, fmt.Errorf("rt: Snap on a runtime that already ran")
	}
	regions := r.mem.Regions()
	s := snapshotPool.Get()
	if s == nil {
		s = &Snapshot{tdg: graph.New()}
	}
	s.recycled = false
	s.regions = resetSlice(s.regions, len(regions))
	r.mem.CopyNames(&s.names)
	for i, reg := range regions {
		home := 0
		if reg.Placement() == memory.Home {
			home = int(reg.HomeOfPage(0))
		}
		s.regions[i] = regionSnap{bytes: reg.Bytes(), placement: reg.Placement(), home: home}
	}
	// Every task's access list is carved from one slab, and barrierIDs is
	// in submission order, so one cursor marks the sync tasks.
	nAcc := 0
	for _, t := range r.tasks {
		nAcc += len(t.Accesses)
	}
	s.acc = resetSlice(s.acc, nAcc)
	s.tasks = resetSlice(s.tasks, len(r.tasks))
	slab := s.acc
	nextBarrier := 0
	for i, t := range r.tasks {
		var acc []accessSnap
		if len(t.Accesses) > 0 {
			acc = slab[:len(t.Accesses):len(t.Accesses)]
			slab = slab[len(t.Accesses):]
			for j, a := range t.Accesses {
				id := a.Region.ID()
				if id < 0 || id >= len(regions) || regions[id] != a.Region {
					return nil, fmt.Errorf("rt: Snap: task %q accesses a region not allocated from the runtime's memory manager", t.Label())
				}
				acc[j] = accessSnap{region: int32(id), mode: a.Mode}
			}
		}
		barrier := nextBarrier < len(r.barrierIDs) && r.barrierIDs[nextBarrier] == t.ID
		if barrier {
			nextBarrier++
		}
		s.tasks[i] = taskSnap{flops: t.Flops, ep: t.EPSocket, barrier: barrier, accesses: acc}
	}
	r.tdg.CompactInto(s.tdg)
	return s, nil
}

// Recycle returns the snapshot's storage — its graph's node arrays, label
// bytes and adjacency slab, and its region, region-name, task and access
// arrays — to the free list Snap fills snapshots from, and drops every
// value Runtime.Shared kept on it. Afterwards the storage references no
// adjacency list or shared value of the graph it held, and the next Snap
// overwrites its labels and region names. A label or region name read
// before (Task.Label, Region.Name, graph.DAG.Label) is a copy and keeps its
// value.
//
// Only the snapshot's sole owner may call it, and only after every runtime
// the snapshot was installed into has been Released: a runtime that still
// runs, or was never released (an observed or traced run), reads the graph
// the next Snap overwrites. Nothing else may use the snapshot afterwards.
// Installing a recycled snapshot, or recycling it again, panics. A snapshot
// that is never recycled is simply left to the garbage collector.
func (s *Snapshot) Recycle() {
	if s.recycled {
		panic("rt: Recycle of a recycled snapshot")
	}
	s.tdg.Reset()
	clear(s.regions)
	clear(s.tasks)
	s.names.Reset()
	s.regions, s.tasks, s.acc = s.regions[:0], s.tasks[:0], s.acc[:0]
	clear(s.shared)
	s.recycled = true
	snapshotPool.Put(s)
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
// Submit. The runtime runs on the snapshot's graph (Recycle says how long
// the snapshot must then live) and leaves its own graph storage untouched,
// for a later build. Installing a recycled snapshot panics.
func (s *Snapshot) Install(r *Runtime) {
	if s.recycled {
		panic("rt: Install of a recycled snapshot")
	}
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
		regs[i] = r.mem.Alloc(s.names.View(i), rp.bytes, rp.placement, rp.home)
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
			Flops:    tp.flops,
			Accesses: acc,
			EPSocket: tp.ep,
			Socket:   -1,
			Core:     -1,
			nDeps:    s.tdg.InDegree(graph.NodeID(i)),
			pickedBy: AnySocket,
			tdg:      s.tdg,
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
	r.snap = s
}

// Shared returns build's value for key, computed once per installed
// snapshot: the first runtime of a snapshot to ask for key runs build, and
// every runtime of that snapshot asking for key then or later, on any
// goroutine, receives the same value (a concurrent caller waits for the
// build). A runtime that built its own graph runs build on every call.
//
// In an Experiment the runs of one snapshot that ask for one key are a
// replicate group's, and its pool sets a follower aside while the leader
// runs, so a caller waits only when its worker has nothing else to claim:
// a follower run beside its leader at a grid's tail. The wait is kept
// because that follower building the value again costs more: with RGP's
// window plan rebuilt there, the benchmark's rgp-repartition workload
// allocated 13.7% more per run on a 2-core host.
//
// The value is shared read-only by concurrent runs, so build must compute
// it from the task graph, its window indices and what key encodes, and no
// caller may mutate it. In particular build must not reach the runtime's
// seed, clock or run state: a run that receives a value another run built
// would otherwise depend on that run. key is copied; the caller may reuse
// its buffer. Distinct callers should prefix their keys with their own
// name. If build panics, every call for key on that snapshot panics with
// the same value, so no runtime reads a value that was never built.
func (r *Runtime) Shared(key []byte, build func() any) any {
	s := r.snap
	if s == nil {
		return build()
	}
	s.mu.Lock()
	v := s.shared[string(key)]
	if v == nil {
		if s.shared == nil {
			s.shared = make(map[string]*sharedValue)
		}
		v = &sharedValue{}
		s.shared[string(key)] = v
	}
	s.mu.Unlock()
	v.once.Do(func() {
		defer func() {
			if !v.done {
				v.panicked = recover()
			}
		}()
		v.val = build()
		v.done = true
	})
	if !v.done {
		panic(v.panicked) // the build's own panic, in every caller
	}
	return v.val
}
