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

// Utilization returns the average fraction of capacity used over [0, now].
func (r *Resource) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return r.Carried(now) / (r.capacity * float64(now))
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

// ActiveFlows returns the number of flows currently crossing the resource
// (a flow whose path names the resource twice counts twice).
func (r *Resource) ActiveFlows() int { return len(r.crossing) }

// Flow is an in-flight transfer of a byte volume across a path of resources.
//
// Flow structs are recycled: the *Flow returned by StartFlow is valid for
// inspection while the flow is active and remains readable after completion,
// but only until the next StartFlow call on the same Net — at that point the
// struct may be reused for the new flow. Callers that need post-completion
// data should copy it out in the done callback.
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
	idx      int        // position in Net.active
	deadline Time       // completion event time as of the last reallocation
	dseq     uint64     // tiebreaker mirroring engine event seq order
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

// Remaining returns the bytes not yet transferred, progressed to the current
// simulated time.
func (f *Flow) Remaining() float64 {
	if f.finished {
		return 0
	}
	f.net.flush() // deferred reallocation: refresh the rate before reading
	elapsed := float64(f.net.eng.Now() - f.lastUpdate)
	rem := f.remaining - elapsed*f.rate
	if rem < 0 {
		rem = 0
	}
	return rem
}

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
// Starting or finishing a flow invalidates rates, but the recompute is
// deferred: churn marks the network dirty, parks the completion event on a
// far-future placeholder and lists the Net on its engine, and the engine
// fills every listed Net once, just before the clock leaves the current
// instant. That batches same-instant churn — a task fanning out transfers
// to several home sockets, or a wave of flows finishing at one timestamp,
// pays for one redistribution instead of one per event. Deferral is observationally
// exact: intermediate same-instant rates would exist for zero simulated
// time, remaining-byte accounting is progressed eagerly per event, the
// flush reassigns deadlines at the same instant an eager recompute would
// have, and the completion event keeps the tie rank the eager design gave
// it — its scheduling seq is claimed at the churn point and the flush only
// moves the placeholder to the real deadline (see noteChurn and
// TestSameInstantTieOrderMatchesEager). Rates become observable only
// between instants, or through Flow.Rate/Remaining, which force the flush.
//
// The fill computes the max-min fair allocation with per-flow caps over flow
// classes (flows with equal path contents and an equal cap; on the bullion
// about 10 classes carry about 26 flows) and the per-resource crossing lists
// StartFlowCapped and finish maintain. Only the resource groups whose
// crossing lists changed since the last fill run it (see waterfill). The
// equivalence suite and FuzzReallocate hold it bit for bit to a test-only
// naive ladder run per group, and a max-min oracle checks both against the
// definition after every flush.
type Net struct {
	eng       *Engine
	resources []*Resource
	active    []*Flow // in-flight flows, ascending id (deterministic order)
	freeFlows []*Flow // recycled Flow structs
	nextFlow  int

	freeClasses []*flowClass // recycled classes

	touched []*Resource // the worklist of resources a cap step subtracts from
	stamp   int         // the last fill step taken; marks the classes it froze

	// Resource groups (see waterfill). uf is a union-find forest over
	// resource ids, -1 for a resource no class path has reached since the
	// last Reset; groups only merge until Reset. gres lists the grouped
	// resources group by group.
	uf     []int
	gres   []*Resource
	groups []fillGroup

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

	// fill runs one water-filling pass at the given instant, settling the
	// resource integrals. Production uses (*Net).waterfill; the equivalence
	// suite swaps in the naive reference ladder.
	fill func(Time)

	// Single earliest-completion event; completeFn is allocated once so
	// rescheduling never creates a new closure.
	pending    Timer
	completeFn func()
	dcounter   uint64 // deadline assignment counter (see Flow.dseq)

	// progressed is the instant every active flow was last progressed to;
	// while it is now, progressAll has nothing to do.
	progressed Time

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

// StartFlow begins moving bytes across path and calls done (if non-nil) when
// the last byte arrives. A flow with an empty path or zero bytes completes
// after zero simulated time (via an immediate event, preserving event order).
// The returned flow can be inspected but not cancelled; flows always run to
// completion. See Flow for the handle-recycling contract.
func (n *Net) StartFlow(bytes float64, path []*Resource, done func()) *Flow {
	return n.StartFlowCapped(bytes, path, math.Inf(1), done)
}

// StartFlowCapped is StartFlow with an additional per-flow rate ceiling in
// bytes/ns. The cap models a source that cannot saturate the path on its own
// — e.g. a single core whose outstanding-miss window limits its achievable
// memory bandwidth. A negative, NaN or infinite volume panics, and so does a
// cap that is not positive (NaN included); +Inf is a valid cap (uncapped).
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
	n.progressAll()
	// Ids are monotonic: appending keeps the active set and every crossing
	// list in ascending id order.
	f.idx = len(n.active)
	n.active = append(n.active, f)
	for _, r := range f.path {
		r.crossing = append(r.crossing, f)
	}
	n.groups[path[0].gid].dirty = true
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

// ActiveFlows returns the number of in-flight flows.
func (n *Net) ActiveFlows() int { return len(n.active) }

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

// progressAll advances every active flow's remaining volume to the current
// time. Flows started since the last pass start at their own instant, so
// when that pass ran at this instant there is nothing to do: progress over
// zero elapsed time changes nothing.
func (n *Net) progressAll() {
	now := n.eng.Now()
	if n.progressed == now {
		return
	}
	for _, f := range n.active {
		f.progress(now)
	}
	n.progressed = now
}

// sentinelTime parks the completion-event placeholder beyond any reachable
// deadline; the end-of-instant flush always reschedules or stops it before
// the clock could get there.
const sentinelTime = Time(math.MaxInt64)

// noteChurn records that a flow just started or finished: rates are stale
// and must be recomputed before the current instant ends. The armed
// completion event is replaced by a far-future placeholder, so it can never
// fire on stale deadlines — and, crucially, the placeholder claims the
// completion event's scheduling seq here, at the churn point, exactly where
// the historical eager recompute re-armed its timer. The flush only moves
// the placeholder to the real deadline (Engine.Reschedule keeps the seq),
// so a tie between the completion and an event scheduled later in the same
// instant resolves exactly as it did under one-recompute-per-churn. A
// placeholder still parked from an earlier churn is re-stamped in place:
// the fresh seq and far-future time Stop and At would give it, on the same
// slot. The first churn since the engine's last flush lists the Net for the
// next one.
func (n *Net) noteChurn() {
	n.pending = n.eng.restamp(n.pending, sentinelTime, n.completeFn)
	n.dirty = true
	if !n.listed {
		n.listed = true
		n.eng.dirty = append(n.eng.dirty, n)
	}
}

// flush applies the deferred reallocation: one water-filling pass over the
// network, then fresh completion deadlines and a re-armed completion event.
// A no-op when no churn is pending, so forced flushes (Flow.Rate, the
// engine's end-of-instant flush of a Net Flow.Rate already flushed) are
// free on a clean network; a no-op as well when a flush is already running
// on this Net (see Net.flushing).
func (n *Net) flush() {
	if !n.dirty || n.flushing {
		return
	}
	n.flushing = true
	n.dirty = false
	now := n.eng.Now()
	if len(n.active) == 0 {
		for _, r := range n.resources {
			r.settle(now, 0)
		}
		n.pending.Stop()
		n.pending = Timer{}
		n.flushing = false
		return
	}
	n.fill(now)
	// Assign fresh completion deadlines in flow-ID order — mirroring the
	// (time, seq) order per-flow timers would have been scheduled in — and
	// arm the single completion event for the earliest one. The pass covers
	// every active flow, not only those whose rate changed: the historical
	// ladder recomputed every deadline from the current instant, and the
	// ceil-rounding of remaining/rate depends on that instant, so skipping
	// a flow here could drift its deadline a nanosecond from the reference.
	// The same pass finds the earliest deadline: dseq rises through the
	// loop, so a strict < keeps the flow earliestDue would pick.
	var best *Flow
	for _, f := range n.active {
		dt, ok := completionDelay(f.remaining, f.rate)
		n.dcounter++
		f.dseq = n.dcounter
		f.starved = !ok
		if ok {
			f.deadline = now + dt
			if best == nil || f.deadline < best.deadline {
				best = f
			}
		}
	}
	// Move the placeholder claimed by the last churn to the real deadline,
	// keeping its seq (see noteChurn).
	if best == nil {
		n.pending.Stop()
		n.pending = Timer{}
		n.flushing = false
		return
	}
	if !n.eng.Reschedule(n.pending, best.deadline) {
		// No live placeholder (defensive — noteChurn always arms one while
		// dirty): fall back to a fresh event.
		n.pending = n.eng.At(best.deadline, n.completeFn)
	}
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
// pending churn: every group is marked dirty, so every group fills.
// Benchmarks use it to measure one full fill.
func (n *Net) reallocate() {
	for g := range n.groups {
		n.groups[g].dirty = true
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

// earliestDue returns the active flow with the smallest (deadline, dseq) —
// the flow whose dedicated timer would fire next under a one-event-per-flow
// design. Starved flows have no deadline and are skipped. Every place that
// arms the completion event (flush, armCompletion) and onComplete must
// select by this exact rule, or the armed event would belong to a different
// flow than the one processed when it fires.
func (n *Net) earliestDue() *Flow {
	var best *Flow
	for _, f := range n.active {
		if !f.starved && dueBefore(f, best) {
			best = f
		}
	}
	return best
}

// dueBefore reports whether f's (deadline, dseq) comes before best's; any
// flow comes before a nil best.
func dueBefore(f, best *Flow) bool {
	return best == nil || f.deadline < best.deadline ||
		(f.deadline == best.deadline && f.dseq < best.dseq)
}

// armCompletion (re)schedules the Net's single completion event for the
// earliest flow deadline, if any flow has one.
func (n *Net) armCompletion() {
	best := n.earliestDue()
	n.pending.Stop()
	if best == nil {
		n.pending = Timer{}
		return
	}
	n.pending = n.eng.At(best.deadline, n.completeFn)
}

// onComplete fires when the earliest flow deadline arrives. It processes
// exactly the flow that deadline belongs to — the same flow whose dedicated
// timer would have fired under a one-event-per-flow design — finishing it,
// or, when ceil rounding made the event marginally early, pushing that
// flow's deadline out by the residue (at least 1ns) and re-arming.
func (n *Net) onComplete() {
	n.pending = Timer{}
	now := n.eng.Now()
	// One pass progresses every flow and picks the earliest due, by the
	// rule earliestDue applies.
	var due *Flow
	for _, f := range n.active {
		f.progress(now)
		if !f.starved && dueBefore(f, due) {
			due = f
		}
	}
	n.progressed = now
	if due == nil {
		return
	}
	if due.remaining > 1e-6 {
		dt, ok := completionDelay(due.remaining, due.rate)
		if !ok {
			due.starved = true // re-examined at the next reallocation
		} else {
			if dt < 1 {
				dt = 1
			}
			n.dcounter++
			due.deadline = now + dt
			due.dseq = n.dcounter
		}
		n.armCompletion()
		return
	}
	n.finish(due)
}

// finish completes f: removes it from the active set, marks the network
// for reallocation (flushed immediately when batching is off, or at the end
// of the instant — which also re-arms the completion event), runs the
// callback, and recycles the struct.
func (n *Net) finish(f *Flow) {
	f.finished = true
	f.remaining = 0
	n.removeActive(f)
	for _, r := range f.path {
		r.removeCrossing(f)
	}
	n.groups[f.path[0].gid].dirty = true
	if f.cls.n--; f.cls.n == 0 {
		n.retireClass(f.cls)
	}
	f.cls = nil
	n.TotalBytes += f.volume
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
	for _, f := range n.active {
		f.finished = true
		f.done = nil
		f.path = nil
		f.cls = nil
		n.freeFlows = append(n.freeFlows, f)
	}
	n.active = n.active[:0]
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
	n.dcounter = 0
	n.progressed = 0
	n.TotalBytes = 0
}

// removeCrossing deletes one occurrence of f from r's crossing list,
// preserving the ascending-id order.
func (r *Resource) removeCrossing(f *Flow) {
	for i, g := range r.crossing {
		if g == f {
			copy(r.crossing[i:], r.crossing[i+1:])
			r.crossing = r.crossing[:len(r.crossing)-1]
			return
		}
	}
}

// removeActive deletes f from the dense active slice, preserving the
// ascending-ID order. Active counts are small (bounded by in-flight
// transfers, at most a few per core), so the shift is cheaper than any
// order-breaking trick plus re-sort.
func (n *Net) removeActive(f *Flow) {
	i := f.idx
	copy(n.active[i:], n.active[i+1:])
	n.active = n.active[:len(n.active)-1]
	for ; i < len(n.active); i++ {
		n.active[i].idx = i
	}
}
