// Package rt implements the task-based runtime system the paper's policies
// plug into — the role Nanos++ plays on the real machine.
//
// Applications submit tasks with region accesses (in/out/inout). The runtime
// derives the task dependency graph exactly as OmpSs does (RAW, WAR and WAW
// over regions), splits the submission stream into windows, and executes the
// graph over the simulated machine: per-socket ready queues, cyclic per-core
// queues for socket-unaware policies, an optional work-stealing fallback,
// and the temporary queue that holds ready tasks while a window's partition
// is still being computed (§2.2 of the paper).
//
// Scheduling decisions are delegated to a Policy; the runtime owns
// everything else. All execution is simulated and deterministic.
//
// # Arena recycling
//
// Runtimes are pooled: Release returns a runtime's grow-only state — the
// task and access arenas, region pool, dependence trackers, successor slab,
// queues, per-core continuation closures, scratch — to a package pool
// NewRuntime draws from, so a sweep's replicates, and the prototype
// runtimes that build each graph once, stop allocating once the first use
// has grown everything to the workload's high-water mark.
//
// Both ways of building a task graph draw on these arenas. Submit takes
// each Task struct from the task arena and copies the task's access list
// into the access arena (slabs that never move, so a *Task and its list
// stay valid while the graph grows), keeps the dependence trackers in a
// dense slice indexed by region ID, and merges each task's dependences in a
// scratch before adding its TDG node with an exactly sized predecessor
// list. Snapshot.Install sizes both arenas to the graph and carves every
// task and access list from them. Neither builds successor lists: Run and
// Start link every task's successors once from the TDG, in its adjacency
// order and from one slab, before the policy's Prepare, so a task's
// successor list is complete from then on (empty before). Release zeroes every arena
// slot and tracker the build used, so a pooled runtime references nothing
// of its previous build, and reuse fully overwrites each slot. The two
// Result slices and anything an Observer may retain escape the run and are
// therefore always freshly allocated; Release is only legal when no
// Observer was configured and the caller retains no *Task or *Region.
//
// Recycling never trades away determinism: a pooled runtime re-runs a
// configuration bit-identically to a fresh one (queue order, RNG stream,
// event schedule), which the determinism goldens in the root package pin.
package rt

import (
	"fmt"

	"numadag/internal/graph"
	"numadag/internal/memory"
	"numadag/internal/sim"
)

// AccessMode declares how a task uses a region, mirroring OmpSs/OpenMP
// depend clauses.
type AccessMode int

const (
	// In is a read dependence.
	In AccessMode = iota
	// Out is a write dependence (the task fully overwrites the region).
	Out
	// InOut reads and writes the region.
	InOut
)

// String implements fmt.Stringer.
func (m AccessMode) String() string {
	switch m {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Reads reports whether the mode reads the region.
func (m AccessMode) Reads() bool { return m == In || m == InOut }

// Writes reports whether the mode writes the region.
func (m AccessMode) Writes() bool { return m == Out || m == InOut }

// Access is one region dependence of a task.
type Access struct {
	Region *memory.Region
	Mode   AccessMode
}

// TaskSpec describes a task at submission time.
type TaskSpec struct {
	// Label names the task for traces and DOT dumps (e.g. "gemm(2,3)").
	Label string
	// Flops is the task's compute work in floating-point operations (or an
	// equivalent abstract work unit; the machine's CoreFlops converts it to
	// time).
	Flops float64
	// Accesses lists the task's region dependences. Submit only borrows the
	// slice for the call: it copies the list into the runtime, so the
	// caller may overwrite or reuse it as soon as Submit returns.
	Accesses []Access
	// EPSocket is the expert programmer's placement (the hardcoded schedule
	// of the paper's EP configuration); NoEPHint if the app provides none.
	EPSocket int
}

// NoEPHint marks the absence of an expert placement hint.
const NoEPHint = -1

// taskState tracks a task through its lifecycle.
type taskState int8

const (
	stateBlocked  taskState = iota // waiting on dependences
	stateReady                     // dependences met, not yet queued/placed
	stateDeferred                  // in the temporary queue (partition pending)
	stateQueued                    // in a ready queue
	stateRunning
	stateDone
)

// Task is a submitted task instance. Fields other than the identification
// ones are managed by the runtime; policies may read them but must not
// write.
type Task struct {
	ID    graph.NodeID
	Label string
	Flops float64
	// Accesses is the task's copy of its region dependences, in the
	// runtime's access arena: it is runtime storage, valid until the
	// runtime is Released, and must not be modified.
	Accesses []Access
	EPSocket int

	// Window is the submission window index the task belongs to.
	Window int

	// Socket and Core record placement once the task starts; -1 before.
	Socket int
	Core   int

	// Stolen reports the task ran on a different socket than the one the
	// policy picked (work-stealing fallback).
	Stolen bool

	// Timeline (simulated).
	ReadyAt sim.Time
	StartAt sim.Time
	EndAt   sim.Time

	state    taskState
	nDeps    int     // unresolved predecessors
	succs    []*Task // linked from the TDG when Run or Start begins
	pickedBy int     // socket chosen by the policy (before stealing), -1 for cyclic
}

// State helpers used by tests and policies.

// Done reports whether the task has finished executing.
func (t *Task) Done() bool { return t.state == stateDone }
