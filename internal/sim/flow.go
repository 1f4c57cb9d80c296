package sim

import (
	"fmt"
	"math"
)

// Resource is a shared capacity, in bytes per nanosecond (numerically equal
// to GB/s), over which fluid flows compete: a socket's memory controller or
// an inter-socket link. Resources are created through Net.NewResource so the
// network can index them densely.
type Resource struct {
	id       int
	name     string
	capacity float64 // bytes/ns

	// crossing lists the active flows whose path includes this resource, in
	// ascending flow id, once per path occurrence (a path naming the
	// resource twice appears twice, adjacently). Kept up to date by
	// StartFlowCapped (append: ids are monotonic) and finish (ordered
	// delete), so the fill never rebuilds it.
	crossing []*Flow
	// classes indexes the live flow classes whose path starts here, for the
	// class lookup in StartFlowCapped and the fill's walk over a group's
	// classes.
	classes []*flowClass
	// gid is the resource group (see Net.waterfill), -1 while no class path
	// has reached the resource since the last Reset.
	gid int

	// Fill scratch: the residual capacity, the unfrozen path occurrences
	// crossing the resource, and a cap step's tally — the occurrences it
	// freezes here and their common cap, NaN when the caps differ (caps are
	// never NaN).
	residual float64
	unfrozen int
	capCount int
	capRate  float64

	// Utilization accounting: byte-time integral of allocated rate.
	carried    float64 // total bytes carried so far
	rate       float64 // currently allocated rate (sum over flows)
	lastUpdate Time
}

// Carried returns the total bytes the resource has transported so far,
// progressed to the given time.
func (r *Resource) Carried(now Time) float64 {
	return r.carried + r.rate*float64(now-r.lastUpdate)
}

// settle folds the running rate into the carried integral at time now.
func (r *Resource) settle(now Time, newRate float64) {
	r.carried += r.rate * float64(now-r.lastUpdate)
	r.rate = newRate
	r.lastUpdate = now
}

// Name returns the diagnostic name given at creation.
func (r *Resource) Name() string { return r.name }

// Rate returns the aggregate allocated rate in bytes/ns — the sum of the
// fair shares of every active flow crossing the resource, as of the last
// reallocation. Unlike Flow.Rate it never forces a flush: it is meant for
// samplers that run as engine flushers (which run after every churned Net
// has filled, so they read settled post-fill values) and must not perturb
// the network.
func (r *Resource) Rate() float64 { return r.rate }

// Capacity returns the resource capacity in bytes per nanosecond.
func (r *Resource) Capacity() float64 { return r.capacity }

// Flow is an in-flight transfer of a byte volume across a path of resources.
//
// Flow structs are recycled: the *Flow returned by StartFlowCapped is valid
// for inspection while the flow is active and remains readable after
// completion, but only until the next StartFlowCapped call on the same Net —
// at that point the struct may be reused for the new flow. Callers that need
// post-completion data should copy it out in the done callback.
type Flow struct {
	id         int
	volume     float64 // total bytes of the transfer
	remaining  float64 // bytes left to move
	rate       float64 // bytes/ns, current max-min allocation
	maxRate    float64 // per-flow rate cap (source concurrency limit)
	path       []*Resource
	lastUpdate Time
	done       func()
	net        *Net
	finished   bool

	// Reallocation / completion-tracking state, owned by Net.
	cls      *flowClass // the class the fill freezes this flow with
	deadline Time       // completion instant as of its group's last flush; ignored while starved
	starved  bool       // rate is 0 (or non-finite volume math): no deadline
}

// flowClass is the set of active flows with equal path contents and an
// equal rate cap. Max-min water-filling cannot tell such flows apart: they
// see the same shares and the same cap in every round, so they freeze in the
// same round at the same rate, and the fill runs over classes instead of
// flows (see Net.waterfill). A class is listed on its path's first
// resource; classes are recycled like Flow structs.
type flowClass struct {
	path    []*Resource // the first member's path; every member's has equal contents
	maxRate float64
	n       int // active member flows

	// Fill state: the step that froze the class (0 while unfrozen) and the
	// rate every member froze at, kept until the class's group fills again.
	frozenIn int
	rate     float64
}

// ID returns the flow's network-unique id. Ids are assigned in start order
// and never reused within a run, so they identify a flow even after its
// struct is recycled.
func (f *Flow) ID() int { return f.id }

// Path returns the contended resources the flow crosses. The slice is the
// caller-supplied path, shared and read-only; it is valid while the flow is
// active (it is dropped at completion, after the end hook runs).
func (f *Flow) Path() []*Resource { return f.path }

// Volume returns the total byte volume of the transfer.
func (f *Flow) Volume() float64 { return f.volume }

// Rate returns the current fair-share rate in bytes/ns.
func (f *Flow) Rate() float64 {
	if !f.finished {
		f.net.flush() // deferred reallocation: refresh before reading
	}
	return f.rate
}

// Net is a fluid-flow network bound to an Engine. All methods must be called
// from the engine goroutine (the simulator is single-threaded by design).
//
// # Incremental reallocation
//
// Starting or finishing a flow invalidates the rates of its resource group
// (see waterfill), but the recompute is deferred: churn puts the group on
// the Net's churn worklist, marks the network dirty, parks the completion
// event on a far-future placeholder and lists the Net on its engine, and
// the engine flushes every listed Net once, just before the clock leaves
// the current instant. That batches same-instant churn — a task fanning out
// transfers to several home sockets, or a wave of flows finishing at one
// timestamp, pays for one redistribution instead of one per event. The
// flush works on the worklist's groups alone: it progresses their flows to
// now at the rates they ran at, fills the groups and gives their flows
// fresh deadlines. Deferral is observationally exact: intermediate
// same-instant rates would exist for zero simulated time, an eager
// recompute would progress and re-deadline the same flows at the same
// instant, and the completion event keeps the tie rank the eager design
// gave it — its scheduling seq is claimed at the churn point and the flush
// only moves the placeholder to the real deadline (see noteChurn and
// TestSameInstantTieOrderMatchesEager). Rates become observable only
// between instants, or through Flow.Rate/Remaining, which force the flush.
//
// A clean group's flows keep their rate, their remaining bytes as of their
// last progress and their deadline, as a timer per flow would: a deadline
// is worked out once per rate, ceil-rounded to the nanosecond at the
// instant the rate takes effect, and not again until the rate changes.
// Flows complete at their deadlines, same-deadline ties in flow-id order,
// whichever groups other churn flushed and whether churn was batched or
// not. One completion event per Net stands for the per-flow timers: it is
// armed for the earliest of the groups' earliest-due flows (see onComplete).
//
// The fill computes the max-min fair allocation with per-flow caps over flow
// classes (flows with equal path contents and an equal cap; on the bullion
// about 10 classes carry about 26 flows) and the per-resource crossing lists
// StartFlowCapped and finish maintain. Only the resource groups whose
// crossing lists changed since the last flush run it (see waterfill). The
// equivalence suite and FuzzReallocate hold it bit for bit to a test-only
// naive ladder run per group, a max-min oracle checks both against the
// definition after every flush, and a completion oracle checks every
// completion against the rates its flow ran at.
type Net struct {
	eng       *Engine
	resources []*Resource
	live      int     // in-flight flows
	freeFlows []*Flow // recycled Flow structs
	nextFlow  int

	freeClasses []*flowClass // recycled classes

	touched []*Resource // the worklist of resources a cap step subtracts from
	stamp   int         // the last fill step taken; marks the classes it froze

	// Resource groups (see waterfill). uf is a union-find forest over
	// resource ids, -1 for a resource no class path has reached since the
	// last Reset; groups only merge until Reset. gres lists the grouped
	// resources group by group. churned is the churn worklist: the groups
	// whose crossing lists changed since the last flush, each once
	// (fillGroup.listed).
	uf      []int
	gres    []*Resource
	groups  []fillGroup
	churned []int

	// Deferred-reallocation state. listed marks the Net as on its engine's
	// dirty list (Engine.dirty): set by the first churn of an instant and
	// cleared only by the engine, at its flush or Reset, never by an early
	// flush, so a Net is listed at most once however often Flow.Rate
	// flushes it between churns. batch controls same-instant coalescing:
	// when false every churn event flushes immediately (one redistribution
	// per start/finish, the historical behaviour); the equivalence tests
	// use it to pin batching against eager recomputation. flushing guards
	// against reentry: Flow.Rate/Remaining force a flush, and nothing stops
	// user code (an accounting hook, a sampler) from calling them while a
	// fill is already running — mid-flush the rates being read are the ones
	// the fill is about to settle, so the reentrant call must be a no-op,
	// not a second fill over half-updated scratch state.
	dirty    bool
	listed   bool
	batch    bool
	flushing bool

	// fill runs one water-filling pass over the churned groups at the given
	// instant, settling their resource integrals. Production uses
	// (*Net).waterfill; the equivalence suite swaps in the naive reference
	// ladder.
	fill func(Time)

	// Single earliest-completion event, armed for next; completeFn is
	// allocated once so rescheduling never creates a new closure.
	pending    Timer
	completeFn func()
	next       *Flow

	// TotalBytes accumulates the volume completed through the network,
	// a convenient global traffic counter for statistics.
	TotalBytes float64

	// Flow lifecycle hooks (SetFlowHooks). Both are nil on the hot path:
	// observability is opt-in and the nil checks keep the untraced network
	// allocation-free and branch-cheap.
	onFlowStart func(*Flow)
	onFlowEnd   func(*Flow)
}

// NewNet creates an empty flow network driven by eng. The engine fills it
// at the end of every instant in which it churned (see Engine.dirty).
func NewNet(eng *Engine) *Net {
	n := &Net{eng: eng, batch: true}
	n.completeFn = n.onComplete
	n.fill = n.waterfill
	return n
}

// NewResource registers a shared resource with the given capacity in
// bytes per nanosecond (== GB/s). Capacity must be positive and finite.
func (n *Net) NewResource(name string, capacity float64) *Resource {
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		panic(fmt.Sprintf("sim: resource %q capacity %v is not a positive finite number", name, capacity))
	}
	r := &Resource{id: len(n.resources), name: name, capacity: capacity, gid: -1}
	n.resources = append(n.resources, r)
	n.uf = append(n.uf, -1)
	return r
}

// SetFlowHooks installs flow lifecycle callbacks: onStart fires when a flow
// enters the active set (before its first rate is assigned — rates of the
// new instant settle at the end-of-instant flush), onEnd when its last byte
// lands, before the completion callback and before the struct is recycled.
// Hooks observe only: they must not start flows, schedule events or mutate
// the network, and they see the *Flow handle subject to the recycling
// contract (copy what outlives the callback). Zero-byte and empty-path
// flows complete immediately and never reach the hooks. Hooks survive
// Reset, like the engine's registered flushers.
func (n *Net) SetFlowHooks(onStart, onEnd func(*Flow)) {
	n.onFlowStart, n.onFlowEnd = onStart, onEnd
}

// StartFlowCapped begins moving bytes across path, at no more than maxRate
// bytes/ns, and calls done (if non-nil) when the last byte arrives. The cap
// models a source that cannot saturate the path on its own — e.g. a single
// core whose outstanding-miss window limits its achievable memory bandwidth;
// +Inf is a valid cap (uncapped). A flow with an empty path or zero bytes
// completes after zero simulated time (via an immediate event, preserving
// event order). The returned flow can be inspected but not cancelled; flows
// always run to completion. See Flow for the handle-recycling contract. A
// negative, NaN or infinite volume panics, and so does a cap that is not
// positive (NaN included).
func (n *Net) StartFlowCapped(bytes float64, path []*Resource, maxRate float64, done func()) *Flow {
	if !(bytes >= 0) || math.IsInf(bytes, 1) {
		panic(fmt.Sprintf("sim: flow volume %v is not a finite non-negative number", bytes))
	}
	if !(maxRate > 0) {
		panic(fmt.Sprintf("sim: flow rate cap %v is not positive", maxRate))
	}
	if bytes == 0 || len(path) == 0 {
		// Immediate completion; never enters the active set or the pool.
		n.nextFlow++
		f := &Flow{
			id:         n.nextFlow,
			volume:     bytes,
			maxRate:    maxRate,
			path:       path,
			lastUpdate: n.eng.Now(),
			net:        n,
			finished:   true,
		}
		n.TotalBytes += bytes
		if done != nil {
			n.eng.After(0, done)
		} else {
			n.eng.After(0, noop)
		}
		return f
	}
	n.nextFlow++
	var f *Flow
	if k := len(n.freeFlows); k > 0 {
		f = n.freeFlows[k-1]
		n.freeFlows = n.freeFlows[:k-1]
	} else {
		f = &Flow{}
	}
	*f = Flow{
		id:         n.nextFlow,
		volume:     bytes,
		remaining:  bytes,
		maxRate:    maxRate,
		path:       path,
		lastUpdate: n.eng.Now(),
		done:       done,
		net:        n,
		cls:        n.classFor(path, maxRate),
	}
	f.cls.n++
	// Ids are monotonic: appending keeps the group's flows and every
	// crossing list in ascending id order.
	g := path[0].gid
	n.groups[g].flows = append(n.groups[g].flows, f)
	for _, r := range f.path {
		r.crossing = append(r.crossing, f)
	}
	n.live++
	n.churn(g)
	n.noteChurn()
	if n.onFlowStart != nil {
		n.onFlowStart(f)
	}
	if !n.batch {
		n.flush()
	}
	return f
}

// noop keeps zero-work flows on the event queue (their completion still
// occupies one engine step, preserving event ordering) without allocating a
// closure per flow.
func noop() {}

// classFor returns the live class of flows with path's contents and cap
// maxRate, creating (or recycling) one when there is none. Paths are
// compared by contents, not by slice identity, so equal paths built
// separately share a class. A new class whose path leaves its group joins
// the groups it touches.
func (n *Net) classFor(path []*Resource, maxRate float64) *flowClass {
	head := path[0]
	for _, c := range head.classes {
		if c.maxRate == maxRate && samePath(c.path, path) {
			return c
		}
	}
	var c *flowClass
	if k := len(n.freeClasses); k > 0 {
		c = n.freeClasses[k-1]
		n.freeClasses = n.freeClasses[:k-1]
	} else {
		c = &flowClass{}
	}
	*c = flowClass{path: path, maxRate: maxRate}
	head.classes = append(head.classes, c)
	if !inGroup(path) {
		n.joinGroups(path)
	}
	return c
}

// samePath reports whether two paths list the same resources in the same
// order.
func samePath(a, b []*Resource) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// retireClass recycles a class whose last member flow just finished.
func (n *Net) retireClass(c *flowClass) {
	head := c.path[0]
	for i, hc := range head.classes {
		if hc == c {
			last := len(head.classes) - 1
			head.classes[i] = head.classes[last]
			head.classes = head.classes[:last]
			break
		}
	}
	c.path = nil
	n.freeClasses = append(n.freeClasses, c)
}

// progress advances f's remaining volume to now using its rate since the
// last update.
func (f *Flow) progress(now Time) {
	elapsed := float64(now - f.lastUpdate)
	if elapsed > 0 {
		f.remaining -= elapsed * f.rate
		if f.remaining < 1e-9 {
			f.remaining = 0
		}
	}
	f.lastUpdate = now
}

// sentinelTime parks the completion-event placeholder beyond any reachable
// deadline; the end-of-instant flush always reschedules or stops it before
// the clock could get there.
const sentinelTime = Time(math.MaxInt64)

// churn puts group g on the churn worklist, once: a flow of the group
// started or finished, so its rates are stale and must be recomputed before
// the current instant ends.
func (n *Net) churn(g int) {
	if grp := &n.groups[g]; !grp.listed {
		grp.listed = true
		n.churned = append(n.churned, g)
	}
}

// noteChurn records that rates are stale. The armed completion event is
// replaced by a far-future placeholder, so it can never fire on stale
// deadlines — and, crucially, the placeholder claims the completion event's
// scheduling seq here, at the churn point, exactly where the historical
// eager recompute re-armed its timer. The flush only moves the placeholder
// to the real deadline (Engine.Reschedule keeps the seq), so a tie between
// the completion and an event scheduled later in the same instant resolves
// exactly as it did under one-recompute-per-churn. A placeholder still
// parked from an earlier churn is re-stamped in place: the fresh seq and
// far-future time Stop and At would give it, on the same slot. The first
// churn since the engine's last flush lists the Net for the next one.
func (n *Net) noteChurn() {
	n.pending = n.eng.restamp(n.pending, sentinelTime, n.completeFn)
	n.next = nil
	n.dirty = true
	if !n.listed {
		n.listed = true
		n.eng.dirty = append(n.eng.dirty, n)
	}
}

// flush applies the deferred reallocation to the groups on the churn
// worklist: it progresses their flows to now at the rates they ran at, fills
// the groups, gives their flows fresh deadlines, and re-arms the completion
// event. The progress pass runs before the fill because a fill (the
// test-only reference too) overwrites the rates. A no-op when no churn is
// pending, so forced flushes (Flow.Rate, the engine's end-of-instant flush
// of a Net Flow.Rate already flushed) are free on a clean network; a no-op
// as well when a flush is already running on this Net (see Net.flushing).
func (n *Net) flush() {
	if !n.dirty || n.flushing {
		return
	}
	n.flushing = true
	n.dirty = false
	now := n.eng.Now()
	if n.live == 0 {
		// Nothing to fill: every resource settles at zero.
		for _, r := range n.resources {
			r.settle(now, 0)
		}
	} else {
		for _, g := range n.churned {
			for _, f := range n.groups[g].flows {
				f.progress(now)
			}
		}
		n.fill(now)
	}
	// Only the churned groups' rates changed, so only their flows get fresh
	// deadlines: ceil(remaining/rate) from now, the deadline a timer set
	// when the rate took effect would carry. A clean group's flows keep the
	// deadlines their rates gave them. Re-deadlining them here as well
	// would round their ceil again from this instant and could move them a
	// nanosecond, so a flow's completion would depend on when other groups
	// churned.
	for _, g := range n.churned {
		grp := &n.groups[g]
		grp.listed = false
		for _, f := range grp.flows {
			dt, ok := completionDelay(f.remaining, f.rate)
			f.starved = !ok
			f.deadline = now + dt
		}
		grp.due = grp.earliest()
	}
	n.churned = n.churned[:0]
	n.arm()
	n.flushing = false
}

// clampSub returns residual - rate, clamped at zero: one frozen flow's
// demand removed from one residual capacity.
func clampSub(residual, rate float64) float64 {
	residual -= rate
	if residual < 0 {
		return 0
	}
	return residual
}

// reallocate forces an immediate from-scratch recompute regardless of
// pending churn: every group joins the worklist, so every group fills.
// Benchmarks use it to measure one full fill.
func (n *Net) reallocate() {
	for g := range n.groups {
		n.churn(g)
	}
	n.noteChurn()
	n.flush()
}

// completionDelay returns the event delay for a flow with the given
// remaining volume and rate. ok is false when the flow is starved (rate 0 —
// it will be re-examined at the next reallocation) so the caller never
// divides into +Inf and never converts a non-finite float to Time.
func completionDelay(remaining, rate float64) (dt Time, ok bool) {
	if rate <= 0 {
		return 0, false
	}
	if math.IsInf(rate, 1) {
		return 0, true
	}
	d := math.Ceil(remaining / rate)
	if d >= math.MaxInt64 {
		// Degenerate rate underflow; clamp rather than overflow Time.
		return 0, false
	}
	return Time(d), true
}

// earliest returns the group's flow with the earliest deadline, the lowest
// id among ties; nil when every flow is starved or none is in flight.
func (grp *fillGroup) earliest() *Flow {
	var due *Flow
	for _, f := range grp.flows {
		if !f.starved && (due == nil || f.deadline < due.deadline) {
			due = f
		}
	}
	return due
}

// arm points the Net's single completion event at the earliest of the
// groups' due flows by (deadline, id) — the flow whose own timer would fire
// next under a one-event-per-flow design — and remembers that flow, so the
// event knows which flow it belongs to when it fires. The placeholder a
// churn parked moves to the deadline, keeping its seq (see noteChurn).
func (n *Net) arm() {
	var best *Flow
	for g := range n.groups {
		f := n.groups[g].due
		if f != nil && (best == nil || f.deadline < best.deadline ||
			f.deadline == best.deadline && f.id < best.id) {
			best = f
		}
	}
	n.next = best
	if best == nil {
		n.pending.Stop()
		n.pending = Timer{}
		return
	}
	if !n.eng.Reschedule(n.pending, best.deadline) {
		n.pending = n.eng.At(best.deadline, n.completeFn)
	}
}

// onComplete fires at the deadline of the flow arm chose, and progresses
// that flow alone: it finishes, or, when ceil rounding made the event
// marginally early, its deadline moves out by the residue (at least 1 ns),
// its group's earliest due is found again and the event re-armed.
func (n *Net) onComplete() {
	n.pending = Timer{}
	f := n.next
	now := n.eng.Now()
	f.progress(now)
	if f.remaining <= 1e-6 {
		n.finish(f)
		return
	}
	if dt, ok := completionDelay(f.remaining, f.rate); ok {
		f.deadline = now + max(dt, 1)
	} else {
		f.starved = true // re-examined when its group next flushes
	}
	grp := &n.groups[f.path[0].gid]
	grp.due = grp.earliest()
	n.arm()
}

// finish completes f: removes it from its group and crossing lists, puts
// its group on the churn worklist (flushed immediately when batching is
// off, or at the end of the instant — which also re-arms the completion
// event), runs the callback, and recycles the struct.
func (n *Net) finish(f *Flow) {
	f.finished = true
	f.remaining = 0
	g := f.path[0].gid
	n.groups[g].flows = removeFlow(n.groups[g].flows, f)
	for _, r := range f.path {
		r.crossing = removeFlow(r.crossing, f)
	}
	n.live--
	if f.cls.n--; f.cls.n == 0 {
		n.retireClass(f.cls)
	}
	f.cls = nil
	n.TotalBytes += f.volume
	n.churn(g)
	n.noteChurn()
	if !n.batch {
		n.flush()
	}
	if n.onFlowEnd != nil {
		n.onFlowEnd(f)
	}
	done := f.done
	f.done = nil
	f.path = nil
	if done != nil {
		done()
	}
	n.freeFlows = append(n.freeFlows, f)
}

// Reset returns the network to its initial state — no active flows, no
// resource groups, zeroed resource integrals and traffic counters — while
// keeping the registered resources, the recycled-Flow and class pools and
// every grown scratch buffer. It must be paired with a reset of the driving
// engine (the parked completion placeholder is abandoned here, and the
// engine owns the dirty list; its reset drops both). Machine.Reset is the
// intended caller.
func (n *Net) Reset() {
	for g := range n.groups {
		grp := &n.groups[g]
		for _, f := range grp.flows {
			f.finished = true
			f.done = nil
			f.path = nil
			f.cls = nil
			n.freeFlows = append(n.freeFlows, f)
		}
		grp.flows = grp.flows[:0]
		grp.due = nil
		grp.listed = false
	}
	n.live = 0
	n.churned = n.churned[:0]
	n.next = nil
	for i, r := range n.resources {
		for _, c := range r.classes {
			c.path = nil
			n.freeClasses = append(n.freeClasses, c)
		}
		r.crossing = r.crossing[:0]
		r.classes = r.classes[:0]
		r.gid = -1
		n.uf[i] = -1
		r.carried = 0
		r.rate = 0
		r.lastUpdate = 0
	}
	n.groups = n.groups[:0]
	n.gres = n.gres[:0]
	n.nextFlow = 0
	n.dirty = false
	n.flushing = false
	n.pending = Timer{}
	n.TotalBytes = 0
}

// removeFlow deletes the first occurrence of f from list, preserving the
// ascending-id order. Lists are a group's flows or a resource's crossing
// flows, a handful each, so the shift is cheaper than any order-breaking
// trick plus re-sort.
func removeFlow(list []*Flow, f *Flow) []*Flow {
	for i, g := range list {
		if g == f {
			copy(list[i:], list[i+1:])
			return list[:len(list)-1]
		}
	}
	return list
}
