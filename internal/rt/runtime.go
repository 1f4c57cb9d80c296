package rt

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"numadag/internal/freelist"
	"numadag/internal/graph"
	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/sim"
	"numadag/internal/xrand"
)

// Options configures a Runtime.
type Options struct {
	// WindowSize caps the tasks per submission window (the paper's window
	// size limit). Zero means a single unbounded window.
	WindowSize int
	// Seed drives every random decision (tie-breaks, stealing victims).
	Seed uint64
	// Steal enables the idle-core cross-socket work-stealing fallback.
	// Stealing within a socket (between a socket's core queues) is always
	// allowed — it has no NUMA cost.
	Steal bool
	// StealThreshold is the minimum backlog per victim core (queued tasks
	// divided by the victim socket's cores) before an idle remote core may
	// steal. A positive threshold keeps stealing a pressure-relief valve
	// instead of a locality shredder: a victim that will drain its queue
	// within a couple of task lengths is left alone.
	StealThreshold int
	// PartitionCostPerTask is the simulated time charged per window task
	// when a policy partitions a window (RGP's SCOTCH invocation). The
	// runtime multiplies it by the window's task count.
	PartitionCostPerTask sim.Time
	// Observer optionally receives task lifecycle events (tracing).
	Observer Observer
}

// DefaultOptions returns the runtime settings used across the evaluation:
// window of 2048 tasks, cross-socket stealing as a pressure valve (victim
// queue of at least one task per victim core), 200ns of partitioning cost
// per task (SCOTCH partitions ~10k-node graphs in a few milliseconds).
func DefaultOptions() Options {
	return Options{
		WindowSize:           2048,
		Seed:                 1,
		Steal:                true,
		StealThreshold:       2,
		PartitionCostPerTask: 200,
	}
}

// Validate reports an option NewRuntime rejects — a negative WindowSize or
// PartitionCostPerTask — naming the field; nil if the options are usable.
func (o Options) Validate() error {
	if o.WindowSize < 0 {
		return fmt.Errorf("rt: negative WindowSize %d", o.WindowSize)
	}
	if o.PartitionCostPerTask < 0 {
		return fmt.Errorf("rt: negative PartitionCostPerTask %d", o.PartitionCostPerTask)
	}
	return nil
}

// regionTrack holds per-region dependence bookkeeping (OmpSs semantics).
type regionTrack struct {
	lastWriter *Task
	readers    []*Task // readers since the last write
}

// slabArena hands out runs of T from pooled slabs: a runtime keeps one for
// its Task structs and one for every task's access list. A slab is never
// resized or dropped while the arena lives, so a run it handed out stays
// valid for the whole build, and reset zeroes every slot handed out, so a
// pooled arena references nothing of the previous build.
type slabArena[T any] struct {
	slabs [][]T
	cur   int // slab being carved
	used  int // slots handed out from slabs[cur]
}

// minArenaSlab is the smallest slab the Submit path grows an arena by.
const minArenaSlab = 64

// free returns the number of slots left before the arena must grow.
func (a *slabArena[T]) free() int {
	n := 0
	for i := a.cur; i < len(a.slabs); i++ {
		n += len(a.slabs[i])
	}
	if a.cur < len(a.slabs) {
		n -= a.used
	}
	return n
}

// reserve grows the arena, by one slab of exactly the shortfall, until n
// more slots are free — Install's sizing. Single slots then need no more
// room; a run can still grow the arena when it does not fit the rest of a
// slab.
func (a *slabArena[T]) reserve(n int) {
	if short := n - a.free(); short > 0 {
		a.slabs = append(a.slabs, make([]T, short))
	}
}

// take returns the next n slots, contiguous and capped at n (nil for n = 0):
// from the current slab when it has room, else from the first later slab
// that has, growing the arena by a slab as large as everything carved so far
// (and at least n) when none has. A run never straddles two slabs.
func (a *slabArena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	for a.cur < len(a.slabs) && len(a.slabs[a.cur])-a.used < n {
		a.cur++
		a.used = 0
	}
	if a.cur == len(a.slabs) {
		total := 0
		for _, sl := range a.slabs {
			total += len(sl)
		}
		a.slabs = append(a.slabs, make([]T, max(total, n, minArenaSlab)))
	}
	run := a.slabs[a.cur][a.used : a.used+n : a.used+n]
	a.used += n
	return run
}

// next returns one slot.
func (a *slabArena[T]) next() *T { return &a.take(1)[0] }

// reset zeroes every slot handed out since the last reset and rewinds the
// arena to its first slab.
func (a *slabArena[T]) reset() {
	for i := 0; i < a.cur && i < len(a.slabs); i++ {
		clear(a.slabs[i])
	}
	if a.cur < len(a.slabs) {
		clear(a.slabs[a.cur][:a.used])
	}
	a.cur, a.used = 0, 0
}

// Runtime executes submitted tasks over a simulated machine under a Policy.
type Runtime struct {
	mach *machine.Machine
	mem  *memory.Manager
	pol  Policy
	opts Options
	rng  *xrand.Rand
	// seedUsed records a Rand call since NewRuntime (SeedUsed).
	seedUsed bool

	// tdg is the run's task graph: own, when the runtime builds it through
	// Submit, or an installed snapshot's. own is the graph storage the
	// runtime keeps through the pool: Release resets it for the next build,
	// and Snap only copies it. snap is the installed snapshot (nil for a
	// graph built through Submit), which keeps the values Shared computes.
	tdg   *graph.DAG
	own   *graph.DAG
	snap  *Snapshot
	tasks []*Task
	// tracks holds the dependence trackers, indexed by region ID. Entries
	// past len are always clean (no writer, empty zeroed readers), so
	// growing within capacity needs no clearing.
	tracks []regionTrack
	// deps is Submit's scratch for one task's merged dependences; depAt,
	// indexed by task ID, holds a predecessor's position in deps plus one
	// while that Submit runs and zero otherwise.
	deps  []graph.Dep
	depAt []int32

	// Queues.
	sockQ []taskDeque // per-socket FIFO (back end feeds stealing)
	coreQ []taskDeque // per-core FIFO (cyclic placement)
	tempQ []*Task     // temporary queue (deferred placement)
	// tempSpare is the retired tempQ buffer ReleaseDeferred swaps in, so
	// draining the temporary queue recycles capacity instead of dropping it.
	tempSpare []*Task
	rrNext    int // cyclic core counter

	coreBusy []bool
	coreTask []*Task

	running    bool
	ranAlready bool
	released   bool
	remaining  int  // tasks not yet done
	stealVeto  bool // policy forbids cross-socket stealing

	// Optional Observer extensions, type-asserted once at NewRuntime so the
	// hot path tests one nil field instead of a dynamic assertion per event.
	obsXfer  TransferObserver
	obsSteal StealObserver

	// Run state. startAt is the instant Run or Start began: Makespan and the
	// port utilization are measured from it, against the portBase traffic
	// sampled then, because a machine's clock and traffic integrals carry
	// every earlier run on it (back-to-back runs, or the cluster's many
	// runtimes on one shared clock). onDone, set by Start, receives the
	// result when the last task completes.
	onDone   func(Result)
	startAt  sim.Time
	portBase []float64
	portNow  []float64

	// Window bookkeeping: windows close on count (WindowSize) or at an
	// explicit Barrier.
	curWindow   int
	windowCount int

	// Hot-path scratch, reused across calls (the runtime is single-threaded
	// on the engine goroutine): per-home byte totals for read/write phases,
	// per-socket residency for ResidencyBytesScratch, and the sorted victim
	// list for cross-socket stealing.
	scratchHome []int64
	resScratch  []int64
	victims     []stealVictim
	// coreConts holds each core's persistent phase continuations: the
	// execute -> read -> compute -> write -> complete chain used to allocate
	// three closures per task; with one task per core at a time, per-core
	// prebuilt continuations reading coreTask[core] are equivalent and
	// allocation-free. The closures capture the Runtime pointer, which pool
	// reuse keeps stable.
	coreConts []coreCont
	// Arena backing for Submit, Install and audit, recycled through the
	// runtime pool: the Task structs, every task's access list (Submit
	// copies the caller's, Install carves them from the snapshot's), and
	// one slab for all successor lists (linked at Run/Start).
	arena      slabArena[Task]
	accArena   slabArena[Access]
	succSlab   []*Task
	regScratch []*memory.Region
	auditCore  [][]*Task
	// barrierTask, when non-nil, is the synchronization task every
	// subsequently submitted task must depend on (taskwait semantics).
	barrierTask *Task
	barriers    int
	// barrierIDs records the sync tasks Barrier submitted, in order, so a
	// Snapshot can replay the window state machine exactly.
	barrierIDs []graph.NodeID
	// installed marks a runtime whose task graph came from a Snapshot;
	// further Submit/Barrier calls are rejected because the dependence
	// trackers were never populated.
	installed bool

	stats Result
}

// runtimePool recycles released runtimes so a sweep's replicates reuse one
// runtime's grow-only state (queues, arenas, region pool, continuations)
// instead of re-growing it per cell. The free list keeps warmed runtimes
// across garbage collections and holds at most as many as were ever in use
// at once.
var runtimePool freelist.List[Runtime]

// NewRuntime creates a runtime over the machine, with its own memory
// manager. It draws on the pool of Released runtimes when one is available,
// and then builds its task graph into the graph storage the pooled runtime
// kept (reset at Release) — also when that runtime was a prototype whose
// graph Snap copied — so a rebuild no larger than an earlier build
// allocates no node array or adjacency chunk. It panics on options
// Validate rejects; callers taking options from input validate them first.
func NewRuntime(m *machine.Machine, pol Policy, opts Options) *Runtime {
	if pol == nil {
		panic("rt: nil policy")
	}
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	r := runtimePool.Get()
	if r == nil {
		r = &Runtime{}
	}
	mem := r.mem
	if mem == nil || mem.Sockets() != m.Sockets() || mem.PageSize() != memory.DefaultPageSize {
		mem = memory.NewManager(m.Sockets())
	} else {
		mem.Reset()
	}
	rng := r.rng
	if rng == nil {
		rng = xrand.New(opts.Seed)
	} else {
		rng.Reseed(opts.Seed)
	}
	own := r.own
	if own == nil {
		own = graph.New()
	}
	*r = Runtime{
		mach:        m,
		mem:         mem,
		pol:         pol,
		opts:        opts,
		rng:         rng,
		tdg:         own,
		own:         own,
		tasks:       r.tasks[:0],
		sockQ:       resetDeques(r.sockQ, m.Sockets()),
		coreQ:       resetDeques(r.coreQ, m.Cores()),
		tempQ:       r.tempQ[:0],
		tempSpare:   r.tempSpare[:0],
		coreBusy:    resetSlice(r.coreBusy, m.Cores()),
		coreTask:    resetSlice(r.coreTask, m.Cores()),
		scratchHome: resetSlice(r.scratchHome, m.Sockets()),
		resScratch:  resetSlice(r.resScratch, m.Sockets()),
		victims:     r.victims[:0],
		portBase:    r.portBase[:0],
		portNow:     r.portNow[:0],
		barrierIDs:  r.barrierIDs[:0],
		tracks:      r.tracks[:0],
		deps:        r.deps[:0],
		depAt:       r.depAt[:0],
		coreConts:   r.coreConts,
		arena:       r.arena,
		accArena:    r.accArena,
		succSlab:    r.succSlab,
		regScratch:  r.regScratch,
		auditCore:   r.auditCore,
	}
	// The per-run stats slices escape through the returned Result and must
	// stay fresh; everything above is internal and safely recycled.
	r.stats.BusyTime = make([]sim.Time, m.Cores())
	r.stats.SocketTasks = make([]int, m.Sockets())
	r.buildConts(m.Cores())
	if v, ok := pol.(StealVeto); ok && v.VetoSteal() {
		r.stealVeto = true
	}
	if o := opts.Observer; o != nil {
		r.obsXfer, _ = o.(TransferObserver)
		r.obsSteal, _ = o.(StealObserver)
	}
	return r
}

// resetQueues resizes a queue-of-queues to n empty queues, keeping every
// inner backing array.
func resetQueues(qs [][]*Task, n int) [][]*Task {
	if cap(qs) < n {
		return make([][]*Task, n)
	}
	qs = qs[:n]
	for i := range qs {
		qs[i] = qs[i][:0]
	}
	return qs
}

// taskDeque is a reusable double-ended task queue: FIFO dispatch pops the
// front, work stealing robs the back. Popped front slots are reclaimed by
// compacting in place rather than re-slicing the head away, so a pooled
// runtime's queues stop allocating once grown to a run's high-water mark.
type taskDeque struct {
	buf  []*Task
	head int
}

func (q *taskDeque) len() int { return len(q.buf) - q.head }

func (q *taskDeque) pushBack(t *Task) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, t)
}

func (q *taskDeque) popFront() *Task {
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return t
}

func (q *taskDeque) popBack() *Task {
	t := q.buf[len(q.buf)-1]
	q.buf = q.buf[:len(q.buf)-1]
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return t
}

// resetDeques resizes a deque list to n empty deques, keeping every backing
// array.
func resetDeques(qs []taskDeque, n int) []taskDeque {
	if cap(qs) < n {
		return make([]taskDeque, n)
	}
	qs = qs[:n]
	for i := range qs {
		qs[i].buf = qs[i].buf[:0]
		qs[i].head = 0
	}
	return qs
}

// resetSlice resizes s to n zeroed elements, reusing its backing array.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// Release returns the runtime's grow-only state to the package pool for
// reuse by future NewRuntime calls. The caller must own the runtime
// exclusively and retain no references to its tasks, regions or task graph
// afterwards — in particular Release must not be used when an Observer was
// configured, since observers typically hold *Task beyond the run. The
// per-run Result (and its slices) remains valid, and so do the labels and
// region names read before (Task.Label, Region.Name), which are copies.
// Release is a no-op on a second call.
//
// A graph the runtime built through Submit is the runtime's own storage,
// whether or not Snap copied it: Release resets it, and the next NewRuntime
// from the pool builds into it. A graph Install put in is the snapshot's:
// Release only drops the runtime's reference to it, after which the
// snapshot's owner may recycle it (Snapshot.Recycle).
func (r *Runtime) Release() {
	if r.running {
		panic("rt: Release during Run")
	}
	if r.released {
		return
	}
	r.released = true
	r.recycle()
	releases.Add(1)
	runtimePool.Put(r)
}

// recycle drops every reference the pooled state holds to this build's
// tasks: the arenas' slots are zeroed, the trackers emptied, the own graph
// reset and the task graph, snapshot and policy handles cleared, so a
// runtime waiting in the pool pins nothing of the build that used it — in
// particular not an installed snapshot, whose owner may recycle its storage
// for another graph once every runtime it was installed into is released,
// nor a region of its own memory manager. The next build overwrites the own
// graph's label bytes and the memory manager's region names.
func (r *Runtime) recycle() {
	if r.own != nil {
		r.own.Reset()
	}
	r.tdg, r.snap, r.pol = nil, nil, nil
	r.arena.reset()
	r.accArena.reset()
	for i := range r.tracks {
		tr := &r.tracks[i]
		clear(tr.readers[:cap(tr.readers)])
		*tr = regionTrack{readers: tr.readers[:0]}
	}
	r.tracks = r.tracks[:0]
}

// releases counts completed Release calls process-wide; tests use it to
// assert the Release-vs-Observer contract (a runner must not recycle a
// runtime whose tasks an observer may still hold).
var releases atomic.Uint64

// Releases returns the number of runtimes released to the pool since
// process start. It only ever grows; tests diff it across an operation.
// Production code never calls it; it stays exported because core's and
// cluster's tests check the Release-vs-Observer contract with it
// (internal/core/release_test.go, internal/cluster/observe_test.go).
func Releases() uint64 { return releases.Load() }

// Machine returns the simulated machine.
func (r *Runtime) Machine() *machine.Machine { return r.mach }

// Mem returns the memory manager applications allocate regions from.
func (r *Runtime) Mem() *memory.Manager { return r.mem }

// Rand returns the runtime's seeded generator (policies share it so a run
// remains a single deterministic stream). It is the only way to the seed,
// and calling it marks the run as using its seed (SeedUsed).
func (r *Runtime) Rand() *xrand.Rand {
	r.seedUsed = true
	return r.rng
}

// SeedUsed reports whether the run reached its seed: a Rand call since
// NewRuntime. Nothing else in rt touches the generator, and neither the
// runtime's own option reads nor Options reveal the seed, so a run that
// reports false under a policy keeping the Policy contract has the same
// Result at every seed.
func (r *Runtime) SeedUsed() bool { return r.seedUsed }

// Graph returns the task dependency graph built so far. Node IDs equal task
// IDs.
func (r *Runtime) Graph() *graph.DAG { return r.tdg }

// Tasks returns all submitted tasks in submission order.
func (r *Runtime) Tasks() []*Task { return r.tasks }

// Task returns the task with the given ID.
func (r *Runtime) Task(id graph.NodeID) *Task { return r.tasks[id] }

// Now returns the current simulated time.
func (r *Runtime) Now() sim.Time { return r.mach.Engine().Now() }

// Options returns the runtime's options with Seed zeroed: the seed stands
// for run-to-run scheduling noise and is reachable only through Rand, so
// reading the options does not mark the run as using it (SeedUsed).
func (r *Runtime) Options() Options {
	o := r.opts
	o.Seed = 0
	return o
}

// nextWindowSlot returns the window for the task being submitted and
// advances the count-based window state.
func (r *Runtime) nextWindowSlot() int {
	w := r.curWindow
	r.windowCount++
	if r.opts.WindowSize > 0 && r.windowCount >= r.opts.WindowSize {
		r.curWindow++
		r.windowCount = 0
	}
	return w
}

// barrierWindow returns the window of a barrier's sync task and advances
// the window state past it: the current window closes if it holds any task,
// the sync task takes one slot of the fresh window, and user tasks after it
// get that window in full.
func (r *Runtime) barrierWindow() int {
	if r.windowCount > 0 {
		r.curWindow++
		r.windowCount = 0
	}
	r.nextWindowSlot()
	r.windowCount = 0
	return r.curWindow
}

// Barrier inserts a synchronization point, as an OmpSs taskwait would:
// every task submitted afterwards depends (transitively, through a zero-work
// sync task) on every task submitted before, and the current submission
// window closes — the paper's runtime partitions the accumulated subgraph
// "once the execution goes through a barrier point" (§2.2). Calling Barrier
// with no tasks submitted since the last one is a no-op. No built-in
// workload calls it; it is facade API for custom builders (numadag.Runtime
// aliases Runtime), the taskwait of an OmpSs program, and Snap and Install
// replay the windows it closes.
func (r *Runtime) Barrier() {
	if r.running {
		panic("rt: Barrier during Run")
	}
	if r.installed {
		panic("rt: Barrier after Install")
	}
	if len(r.tasks) == 0 || r.tasks[len(r.tasks)-1] == r.barrierTask {
		return // nothing submitted since the last barrier
	}
	r.barriers++
	// The sync task depends on the previous sync task and on every current
	// leaf; non-leaves reach it transitively through their successors. Every
	// task before the previous sync task already reaches it, so the leaf
	// scan starts there.
	deps, first := r.deps[:0], 0
	if b := r.barrierTask; b != nil {
		deps = append(deps, graph.Dep{From: b.ID, Weight: 1})
		first = int(b.ID) + 1
	}
	for _, t := range r.tasks[first:] {
		if r.tdg.OutDegree(t.ID) == 0 {
			deps = append(deps, graph.Dep{From: t.ID, Weight: 1})
		}
	}
	r.deps = deps
	sync := r.addTask(TaskSpec{Label: "barrier#" + strconv.Itoa(r.barriers), EPSocket: NoEPHint}, deps, r.barrierWindow())
	r.barrierTask = sync
	r.barrierIDs = append(r.barrierIDs, sync.ID)
}

// Windows returns the number of submission windows.
func (r *Runtime) Windows() int {
	if len(r.tasks) == 0 {
		return 0
	}
	return r.tasks[len(r.tasks)-1].Window + 1
}

// WindowRange returns the half-open submission-index range [lo, hi) of
// window w's tasks. Window values are non-decreasing in submission order
// (both the count-based state machine and Barrier only ever advance the
// window), so each window is one contiguous run of r.Tasks().
func (r *Runtime) WindowRange(w int) (lo, hi int) {
	lo = sort.Search(len(r.tasks), func(i int) bool { return r.tasks[i].Window >= w })
	hi = sort.Search(len(r.tasks), func(i int) bool { return r.tasks[i].Window > w })
	return lo, hi
}

// WindowTasks returns the tasks of window w in submission order. The result
// is a sub-slice of the runtime's own task list; callers must not mutate it.
func (r *Runtime) WindowTasks(w int) []*Task {
	lo, hi := r.WindowRange(w)
	return r.tasks[lo:hi]
}

// Submit registers a task, deriving its dependences from region accesses:
// a read depends on the region's last writer (RAW); a write depends on the
// last writer (WAW) and on every reader since (WAR). RAW and WAW edges are
// weighted with the region's bytes (the data the dependency represents);
// WAR edges carry weight 1 (pure ordering). Submit must be called before
// Run; the TDG is then complete, and the window mechanism reproduces the
// paper's partial-knowledge partitioning. The task's access list is a copy
// in the runtime's access arena, and its label a copy in the task graph's
// storage: spec.Accesses and spec.Label are only read during the call, so a
// builder may refill one slice and one name buffer for every task.
func (r *Runtime) Submit(spec TaskSpec) *Task {
	if r.running {
		panic("rt: Submit during Run")
	}
	if r.installed {
		panic("rt: Submit after Install")
	}
	if spec.EPSocket != NoEPHint && (spec.EPSocket < 0 || spec.EPSocket >= r.mach.Sockets()) {
		panic(fmt.Sprintf("rt: EP socket %d out of range", spec.EPSocket))
	}
	if spec.Flops < 0 {
		panic("rt: negative flops")
	}
	// Merge the task's dependences in the scratch: one entry per distinct
	// predecessor, weights summed as repeated AddEdge calls would.
	deps := r.deps[:0]
	add := func(from *Task, w int64) {
		if at := r.depAt[from.ID]; at > 0 {
			deps[at-1].Weight += w
			return
		}
		deps = append(deps, graph.Dep{From: from.ID, Weight: w})
		r.depAt[from.ID] = int32(len(deps))
	}
	// Taskwait semantics: everything after a barrier depends on it.
	if b := r.barrierTask; b != nil {
		add(b, 1)
	}
	for _, a := range spec.Accesses {
		if a.Region == nil {
			panic("rt: access with nil region")
		}
		tr := r.track(a.Region.ID())
		if a.Mode.Reads() {
			if tr.lastWriter != nil {
				add(tr.lastWriter, a.Region.Bytes()) // RAW: real data
			}
		}
		if a.Mode.Writes() {
			if tr.lastWriter != nil {
				add(tr.lastWriter, 1) // WAW: ordering only
			}
			for _, rd := range tr.readers {
				add(rd, 1) // WAR: ordering only
			}
		}
	}
	for _, d := range deps {
		r.depAt[d.From] = 0
	}
	slices.SortFunc(deps, func(a, b graph.Dep) int { return cmp.Compare(a.From, b.From) })
	r.deps = deps
	t := r.addTask(spec, deps, r.nextWindowSlot())
	// Update trackers after dependence edges are drawn.
	for _, a := range spec.Accesses {
		tr := &r.tracks[a.Region.ID()]
		if a.Mode.Writes() {
			tr.lastWriter = t
			tr.readers = tr.readers[:0]
		}
		if a.Mode.Reads() && a.Mode == In {
			tr.readers = append(tr.readers, t)
		}
	}
	return t
}

// addTask appends the task for spec to the TDG and the task list, in the
// given window, with the given merged, ID-sorted dependences as its
// predecessors. The Task and its copy of spec's access list come from the
// pooled arenas.
func (r *Runtime) addTask(spec TaskSpec, deps []graph.Dep, window int) *Task {
	id := r.tdg.AddNodeDeps(spec.Label, int64(spec.Flops), deps)
	acc := r.accArena.take(len(spec.Accesses))
	copy(acc, spec.Accesses)
	t := r.arena.next()
	*t = Task{
		ID:       id,
		Flops:    spec.Flops,
		Accesses: acc,
		EPSocket: spec.EPSocket,
		Window:   window,
		Socket:   -1,
		Core:     -1,
		nDeps:    len(deps),
		pickedBy: AnySocket,
		tdg:      r.tdg,
	}
	r.tasks = append(r.tasks, t)
	r.depAt = append(r.depAt, 0)
	return t
}

// track returns the dependence tracker of region id, extending the tracker
// slice over clean entries when id is new.
func (r *Runtime) track(id int) *regionTrack {
	if id >= len(r.tracks) {
		if id < cap(r.tracks) {
			r.tracks = r.tracks[:id+1]
		} else {
			r.tracks = append(r.tracks[:cap(r.tracks)], make([]regionTrack, id+1-cap(r.tracks))...)
		}
	}
	return &r.tracks[id]
}

// linkSuccs points every task's successor list at its TDG successors, in
// the graph's adjacency order, carving all lists from one pooled slab. Run
// and Start call it once, before the policy's Prepare; until then every
// successor list is empty.
func (r *Runtime) linkSuccs() {
	n := r.tdg.Edges()
	if cap(r.succSlab) < n {
		r.succSlab = make([]*Task, n)
	}
	slab, off := r.succSlab[:n], 0
	for _, t := range r.tasks {
		d := r.tdg.OutDegree(t.ID)
		if d == 0 {
			continue
		}
		succ := slab[off : off : off+d]
		off += d
		r.tdg.Succs(t.ID, func(to graph.NodeID, _ int64) { succ = append(succ, r.tasks[to]) })
		t.succs = succ
	}
}

// ResidencyBytes returns, per socket, the allocated bytes of the task's
// accessed regions — the weights LAS uses to pick a socket.
func (r *Runtime) ResidencyBytes(t *Task) []int64 {
	out := make([]int64, r.mach.Sockets())
	for _, a := range t.Accesses {
		a.Region.AddBytesOnSocket(out)
	}
	return out
}

// ResidencyBytesScratch is ResidencyBytes into a runtime-owned scratch
// slice, valid only until the next call — the allocation-free form policies
// use when querying residency once per task.
func (r *Runtime) ResidencyBytesScratch(t *Task) []int64 {
	out := r.resScratch
	for i := range out {
		out[i] = 0
	}
	for _, a := range t.Accesses {
		a.Region.AddBytesOnSocket(out)
	}
	return out
}

// QueueLen returns the number of tasks queued on a socket (socket queue
// plus the core queues of its cores).
func (r *Runtime) QueueLen(socket int) int {
	n := r.sockQ[socket].len()
	lo, hi := r.mach.CoresOf(socket)
	for c := lo; c < hi; c++ {
		n += r.coreQ[c].len()
	}
	return n
}

// At schedules fn at simulated time now+d (exposed for policies charging
// partitioning cost).
func (r *Runtime) At(d sim.Time, fn func()) { r.mach.Engine().After(d, fn) }

// ReleaseDeferred re-offers every task in the temporary queue to the
// policy. Policies call it when a pending partition completes.
func (r *Runtime) ReleaseDeferred() {
	pending := r.tempQ
	r.tempQ = r.tempSpare[:0]
	r.tempSpare = pending[:0]
	for _, t := range pending {
		t.state = stateReady
		r.place(t)
	}
}

// Run executes all submitted tasks to completion and returns the result:
// Start's prologue, then it pumps the engine until no event is left. Like
// Start, it can only be called once.
func (r *Runtime) Run() Result {
	r.begin(nil)
	r.mach.Engine().Run()
	if r.remaining != 0 {
		panic(fmt.Sprintf("rt: %d tasks never ran (dependency deadlock?)", r.remaining))
	}
	return r.stats
}

// Start begins executing all submitted tasks without driving the engine:
// the ready frontier is scheduled and done(result) fires from within the
// engine's event stream when the last task completes. It is the
// shared-clock counterpart of Run — a cluster simulation starts many
// runtimes (one per in-flight job, each on its own machine) against one
// engine and pumps that engine itself.
//
// A runtime with zero tasks completes immediately: done fires
// synchronously, before Start returns. Like Run, Start can only be called
// once; the runtime must not Submit afterwards.
func (r *Runtime) Start(done func(Result)) {
	if done == nil {
		panic("rt: Start with nil completion callback")
	}
	r.begin(done)
}

// begin is the prologue Run and Start share: it samples the run's start
// instant and port traffic, links successors, lets the policy prepare and
// makes every dependency-free task ready at the current instant, in
// submission order.
func (r *Runtime) begin(done func(Result)) {
	if r.ranAlready {
		panic("rt: Run or Start on a runtime that already ran")
	}
	r.ranAlready = true
	r.running = true
	r.onDone = done
	r.startAt = r.Now()
	r.portBase = resetSlice(r.portBase, r.mach.Sockets())
	r.mach.PortTraffic(r.portBase)
	r.remaining = len(r.tasks)
	r.linkSuccs()
	if p, ok := r.pol.(Preparer); ok {
		p.Prepare(r)
	}
	if r.remaining == 0 {
		r.finish()
		return
	}
	for _, t := range r.tasks {
		if t.nDeps == 0 {
			r.makeReady(t)
		}
	}
}

// finish finalizes the run when its last task completes and hands the
// result to Start's done. running is cleared before the callback so the
// receiver may immediately Release the runtime or start a successor job on
// the same machine.
func (r *Runtime) finish() {
	r.running = false
	r.stats.Makespan = r.Now() - r.startAt
	r.stats.TasksRun = len(r.tasks)
	r.finishStats()
	if done := r.onDone; done != nil {
		r.onDone = nil
		done(r.stats)
	}
}

func (r *Runtime) makeReady(t *Task) {
	t.state = stateReady
	t.ReadyAt = r.Now()
	r.place(t)
}

// place asks the policy for a placement and enqueues the task.
func (r *Runtime) place(t *Task) {
	pick := r.pol.PickSocket(r, t)
	switch {
	case pick == DeferPlacement:
		t.state = stateDeferred
		r.tempQ = append(r.tempQ, t)
		r.stats.Deferred++
		return
	case pick == AnySocket:
		t.pickedBy = AnySocket
		core := r.rrNext % r.mach.Cores()
		r.rrNext++
		t.state = stateQueued
		r.coreQ[core].pushBack(t)
		if !r.coreBusy[core] {
			r.dispatch(core)
		} else if r.opts.Steal {
			r.wakeIdleCore()
		}
		return
	case pick >= 0 && pick < r.mach.Sockets():
		t.pickedBy = pick
		t.state = stateQueued
		r.sockQ[pick].pushBack(t)
		lo, hi := r.mach.CoresOf(pick)
		for c := lo; c < hi; c++ {
			if !r.coreBusy[c] {
				r.dispatch(c)
				return
			}
		}
		if r.opts.Steal {
			r.wakeIdleCore()
		}
		return
	default:
		panic(fmt.Sprintf("rt: policy %s picked socket %d of %d", r.pol.Name(), pick, r.mach.Sockets()))
	}
}

// wakeIdleCore nudges one idle core (if any) to look for work — needed when
// work lands on a socket whose cores are all busy but other sockets idle.
func (r *Runtime) wakeIdleCore() {
	for c := 0; c < r.mach.Cores(); c++ {
		if !r.coreBusy[c] {
			r.dispatch(c)
			return
		}
	}
}

// dispatch lets an idle core pick its next task: own core queue, then its
// socket's queue, then stealing (nearest socket first).
func (r *Runtime) dispatch(core int) {
	if r.coreBusy[core] {
		return
	}
	t := r.pickWork(core)
	if t == nil {
		return
	}
	r.execute(core, t)
}

// stealVictim pairs a candidate victim socket with its hop distance.
type stealVictim struct{ s, d int }

func (r *Runtime) pickWork(core int) *Task {
	if q := &r.coreQ[core]; q.len() > 0 {
		return q.popFront()
	}
	s := r.mach.SocketOf(core)
	if q := &r.sockQ[s]; q.len() > 0 {
		return q.popFront()
	}
	// Intra-socket steal from sibling core queues: no NUMA cost, always on.
	lo, hi := r.mach.CoresOf(s)
	for c := lo; c < hi; c++ {
		if c == core {
			continue
		}
		if q := &r.coreQ[c]; q.len() > 0 {
			return q.popBack()
		}
	}
	if !r.opts.Steal || r.stealVeto {
		return nil
	}
	// Cross-socket steal: visit victims nearest-first (then lowest index),
	// and only rob sockets whose backlog exceeds the threshold — queues a
	// victim will drain shortly are left alone, protecting locality.
	victims := r.victims[:0]
	for v := 0; v < r.mach.Sockets(); v++ {
		if v != s {
			victims = append(victims, stealVictim{s: v, d: r.mach.Hops(s, v)})
		}
	}
	r.victims = victims
	for i := 1; i < len(victims); i++ {
		for j := i; j > 0 && (victims[j].d < victims[j-1].d ||
			(victims[j].d == victims[j-1].d && victims[j].s < victims[j-1].s)); j-- {
			victims[j], victims[j-1] = victims[j-1], victims[j]
		}
	}
	minBacklog := r.opts.StealThreshold * r.mach.Config().CoresPerSocket
	for _, v := range victims {
		if r.QueueLen(v.s) < minBacklog {
			continue
		}
		if q := &r.sockQ[v.s]; q.len() > 0 {
			t := q.popBack() // steal the youngest: oldest stays local
			t.Stolen = true
			r.stats.Steals++
			if r.obsSteal != nil {
				r.obsSteal.TaskStolen(t, v.s, s)
			}
			return t
		}
		vlo, vhi := r.mach.CoresOf(v.s)
		for c := vlo; c < vhi; c++ {
			if q := &r.coreQ[c]; q.len() > 0 {
				t := q.popBack()
				t.Stolen = true
				r.stats.Steals++
				if r.obsSteal != nil {
					r.obsSteal.TaskStolen(t, v.s, s)
				}
				return t
			}
		}
	}
	return nil
}

// coreCont is one core's persistent execution state machine: the phase
// continuations of the read -> compute -> write -> complete chain, built
// once per core, plus the in-flight transfer countdown of the current
// phase. A core runs one task at a time, so per-task closures are
// unnecessary — each continuation finds its task in coreTask[core].
type coreCont struct {
	pending int    // transfers still in flight for the current phase
	done    func() // continuation once the current phase's transfers land

	afterRead    func() // schedules the compute phase
	afterCompute func() // runs the write phase
	afterWrite   func() // completes the task
	onTransfer   func() // counts one transfer down, firing done at zero
}

// buildConts sizes coreConts for the machine and builds the continuations
// of any core that lacks them. The closures capture the Runtime pointer
// itself (stable across pool reuse), never a task.
func (r *Runtime) buildConts(cores int) {
	if cap(r.coreConts) < cores {
		cc := make([]coreCont, cores)
		copy(cc, r.coreConts)
		r.coreConts = cc
	} else {
		r.coreConts = r.coreConts[:cores]
	}
	for c := range r.coreConts {
		if r.coreConts[c].afterRead != nil {
			r.coreConts[c].pending = 0
			r.coreConts[c].done = nil
			continue
		}
		c := c
		r.coreConts[c].afterRead = func() {
			t := r.coreTask[c]
			r.mach.Engine().After(r.mach.ComputeTime(t.Flops), r.coreConts[c].afterCompute)
		}
		r.coreConts[c].afterCompute = func() {
			r.phase(c, r.coreTask[c], true, r.coreConts[c].afterWrite)
		}
		r.coreConts[c].afterWrite = func() {
			r.complete(c, r.coreTask[c])
		}
		r.coreConts[c].onTransfer = func() {
			cc := &r.coreConts[c]
			cc.pending--
			if cc.pending == 0 {
				cc.done()
			}
		}
	}
}

// execute runs a task on a core: read phase (fetch inputs), compute phase,
// write phase (store outputs), then completion.
func (r *Runtime) execute(core int, t *Task) {
	socket := r.mach.SocketOf(core)
	r.coreBusy[core] = true
	r.coreTask[core] = t
	t.state = stateRunning
	t.Core = core
	t.Socket = socket
	t.StartAt = r.Now()
	r.stats.SocketTasks[socket]++
	if r.opts.Observer != nil {
		r.opts.Observer.TaskStart(t)
	}

	r.phase(core, t, false, r.coreConts[core].afterRead)
}

// phase moves a task's data between its home sockets and the executing
// one, concurrently: the read phase (write false) fetches every input
// byte, the write phase stores every output byte. An unallocated page is
// first-touched on the executing socket: the reader allocates, as Linux
// would, and a task's output lands on the socket it ran on, which is
// deferred allocation paying off.
func (r *Runtime) phase(core int, t *Task, write bool, done func()) {
	socket := r.mach.SocketOf(core)
	perHome := r.scratchHome
	clear(perHome)
	for _, a := range t.Accesses {
		if write && !a.Mode.Writes() || !write && !a.Mode.Reads() {
			continue
		}
		if !a.Region.Allocated() {
			a.Region.Touch(socket)
		}
		a.Region.AddBytesOnSocket(perHome)
	}
	r.fanOutTransfers(core, socket, perHome, done)
}

// fanOutTransfers launches one transfer per non-empty home socket and calls
// done when all land. Zero total bytes completes immediately (synchronously,
// keeping zero-work tasks cheap for the event queue). The countdown lives in
// the core's coreCont — a core has at most one phase in flight, so its
// prebuilt onTransfer continuation replaces a per-transfer closure.
func (r *Runtime) fanOutTransfers(core, execSocket int, perHome []int64, done func()) {
	cc := &r.coreConts[core]
	pendingTransfers := 0
	for _, b := range perHome {
		if b > 0 {
			pendingTransfers++
		}
	}
	if pendingTransfers == 0 {
		done()
		return
	}
	cc.pending = pendingTransfers
	cc.done = done
	for home, b := range perHome {
		if b == 0 {
			continue
		}
		hops := r.mach.Hops(execSocket, home)
		if hops == 0 {
			r.stats.LocalBytes += b
		} else {
			r.stats.RemoteBytes += b
			r.stats.RemoteByteHops += int64(hops) * b
		}
		onLand := cc.onTransfer
		if r.obsXfer != nil {
			// Wrap the landing continuation so TransferEnd fires at the exact
			// completion instant, before the phase countdown. The closure
			// allocates, but only on the traced path — untraced runs keep the
			// prebuilt per-core continuation.
			t, home, b := r.coreTask[core], home, b
			r.obsXfer.TransferStart(t, home, execSocket, b)
			onLand = func() {
				r.obsXfer.TransferEnd(t, home, execSocket, b)
				cc.onTransfer()
			}
		}
		r.mach.Transfer(home, execSocket, b, onLand)
	}
}

// complete finalizes a task: wake dependents, free the core, dispatch.
func (r *Runtime) complete(core int, t *Task) {
	t.state = stateDone
	t.EndAt = r.Now()
	r.stats.BusyTime[core] += t.EndAt - t.StartAt
	r.coreBusy[core] = false
	r.coreTask[core] = nil
	r.remaining--
	if r.opts.Observer != nil {
		r.opts.Observer.TaskEnd(t)
	}
	if h, ok := r.pol.(TaskDoneHook); ok {
		h.TaskDone(r, t)
	}
	for _, succ := range t.succs {
		succ.nDeps--
		if succ.nDeps == 0 && succ.state == stateBlocked {
			r.makeReady(succ)
		}
	}
	r.dispatch(core)
	if r.remaining == 0 {
		r.finish()
	}
}
