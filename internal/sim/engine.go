// Package sim implements the deterministic discrete-event core that stands in
// for the paper's physical machine.
//
// Two layers live here:
//
//   - Engine: an event-heap simulator with integer-nanosecond time. Events
//     scheduled for the same instant fire in scheduling order, which makes
//     every run bit-reproducible.
//   - Net: a fluid-flow network on top of Engine. A Flow is a volume of bytes
//     crossing a set of shared Resources (memory controllers, inter-socket
//     links); the rate of every active flow is the max-min fair allocation
//     over those resources, recomputed whenever a flow starts or finishes.
//
// The fluid model is the standard substitute for cycle-level memory-system
// simulation when the quantities of interest are bandwidth contention and
// completion times rather than per-request behaviour; it is what lets an
// 8-socket bullion S16 run inside a unit test.
//
// # Hot-path design
//
// Both layers are engineered for allocation-free steady-state operation —
// the reallocation loop is >half the CPU of every paper-scale sweep, so the
// structures are dense and recycled rather than pointer-built per call —
// and the engine's per-step cost follows the live work, not the run's
// length or the number of Nets sharing it:
//
//   - The event queue is an indexed binary heap of slot IDs over a value
//     arena ([]event). Slots are recycled through a free list, Timer handles
//     are (slot, generation) values so Stop after reuse is a safe no-op, and
//     Stop removes the slot from the heap immediately — the heap never holds
//     cancelled events, so Pending is len(heap) and Step never skips.
//   - A long pre-computed schedule, such as a service run's whole arrival
//     stream, enters through AtEach: it claims every event's scheduling seq
//     up front but queues only the next one, so the heap holds the live
//     events (about 16 per step on a 16-machine fleet) instead of every
//     future arrival (about 6,000), with the firing order unchanged.
//   - Net keeps each resource group's in-flight flows in a dense slice
//     ordered by ascending flow ID (the deterministic iteration order), and
//     per resource the list of flows crossing it in the same order, updated
//     as flows start and finish rather than rebuilt per fill. Fills reuse
//     per-Net scratch buffers.
//   - Finished Flow structs are recycled through a free list; a *Flow handle
//     is valid for inspection until the next StartFlowCapped call on the
//     same Net after the flow completes.
//   - Instead of one completion timer per flow, the Net keeps a single
//     earliest-completion event. A flow's deadline is a plain Time field,
//     set when its group fills and kept until the group fills again, and
//     each group remembers its earliest-due flow. The event is armed for
//     the earliest of those by (deadline, flow ID) and remembers its flow,
//     so a completion progresses that one flow and scans nothing.
//     Same-deadline ties complete in flow-ID order whether churn was
//     batched or not. Churn parks the event far in the future under a
//     fresh seq, re-stamping its slot in place rather than freeing and
//     re-taking it.
//   - Reallocation itself is deferred and batched: flow churn marks the Net
//     dirty and lists it, once, on its engine, and the engine fills the
//     listed Nets once per instant, just before the clock advances — so a
//     task fanning out transfers, or a wave of same-nanosecond completions,
//     pays for one max-min redistribution instead of one per event, and a
//     flush on a shared engine visits the churned Nets only, not the whole
//     fleet. The water-filling pass runs its rounds over flow classes
//     (flows with equal paths and caps) and the crossing lists, one resource
//     group at a time — a set of resources no flow path leaves, on the
//     bullion one socket's memory controller and port. Max-min fairness
//     separates exactly across groups, so only a group whose crossing lists
//     changed since the last flush is on the churn worklist. The flush
//     progresses, fills and re-deadlines the worklist's flows alone, with
//     each group's own shares, so a flush after one task's churn touches
//     that task's sockets only. A test-only naive ladder run per group pins
//     it bit for bit (the equivalence suite and FuzzReallocate), a max-min
//     oracle checks both against the definition after every flush, and a
//     completion oracle checks every completion against the rates the flow
//     ran at.
//
// # Determinism contract
//
// For a fixed event schedule, Engine.Run visits events in (time, scheduling
// seq) order and Engine.Steps counts only live events — two identical
// configurations produce bit-identical (Makespan, Steps, TotalBytes)
// triples. The top-level determinism suite (determinism_test.go) golden-
// checks that triple for every app x policy x seed; any change to this
// package that moves those goldens is a behaviour change, not an
// optimisation.
//
// # End-of-instant flush order
//
// Before the clock leaves an instant in which any Net churned, the engine
// flushes: it fills every churned Net, then runs the flushers registered
// with AddFlusher in registration order, all on the engine goroutine. A
// sampler (the tracer's per-link counters) therefore reads settled
// post-fill rates for the instant whenever it was registered, before or
// after the Nets it samples. Fills and flushers may queue events at the
// current instant; those run before the clock advances, and churn they
// cause triggers a further flush.
package sim

import (
	"fmt"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Common durations, for readable configuration code.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time as seconds with millisecond precision for small
// values and full nanoseconds otherwise.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is one arena slot. A slot is live while pos >= 0; gen increments on
// every release so stale Timer handles can never touch a recycled slot.
type event struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among same-instant events
	fn  func()
	gen uint32
	pos int32 // index in Engine.heap, -1 when free
}

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now    Time
	slots  []event // value arena; heap entries index into it
	free   []int32 // recycled slot IDs
	heap   []int32 // binary heap of live slot IDs, ordered by (at, seq)
	seq    uint64
	nSteps uint64

	// End-of-instant flush state. dirty lists the Nets churned since the
	// last flush, each once (Net.listed), in churn order; flushers are the
	// hooks registered with AddFlusher. A flush is due while dirty is
	// non-empty: before the clock advances past the current instant, and
	// before the queue is reported drained, the engine fills every listed
	// Net and then runs the flushers in registration order.
	dirty    []*Net
	flushers []func()
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far, a cheap progress and
// determinism probe for tests.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Timer is a value handle to a scheduled event that can be cancelled before
// it fires. The zero Timer is inert. Cancelled events are removed from the
// queue immediately, so stale timers neither stretch a run's final time nor
// occupy heap space.
type Timer struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Stop cancels the event if it has not fired yet. Stopping an already-fired
// or already-stopped timer (or the zero Timer) is a no-op.
func (t Timer) Stop() {
	if t.e == nil {
		return
	}
	s := &t.e.slots[t.slot]
	if s.gen != t.gen || s.pos < 0 {
		return // already fired, stopped, or slot recycled
	}
	t.e.removeAt(int(s.pos))
}

// less orders live slots by (at, seq).
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *Engine) siftUp(i int) {
	id := e.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(id, e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		e.slots[e.heap[i]].pos = int32(i)
		i = parent
	}
	e.heap[i] = id
	e.slots[id].pos = int32(i)
}

// siftDown reports whether the element at i moved down.
func (e *Engine) siftDown(i int) bool {
	id := e.heap[i]
	start := i
	n := len(e.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && e.less(e.heap[r], e.heap[l]) {
			child = r
		}
		if !e.less(e.heap[child], id) {
			break
		}
		e.heap[i] = e.heap[child]
		e.slots[e.heap[i]].pos = int32(i)
		i = child
	}
	e.heap[i] = id
	e.slots[id].pos = int32(i)
	return i > start
}

// removeAt unlinks the slot at heap position i and releases it to the free
// list.
func (e *Engine) removeAt(i int) {
	id := e.heap[i]
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.slots[e.heap[i]].pos = int32(i)
	}
	e.heap = e.heap[:last]
	if i != last && i < len(e.heap) {
		// The moved entry may need to travel either direction.
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
	s := &e.slots[id]
	s.fn = nil // release the closure for GC
	s.pos = -1
	s.gen++
	e.free = append(e.free, id)
}

// At schedules fn to run at absolute time t and returns a cancellation
// handle. Scheduling in the past panics: it is always a simulator bug, never
// a recoverable condition.
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	e.seq++
	return e.push(t, e.seq, fn)
}

// push queues fn at t under the scheduling seq seq.
func (e *Engine) push(t Time, seq uint64, fn func()) Timer {
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, event{pos: -1})
		id = int32(len(e.slots) - 1)
	}
	s := &e.slots[id]
	s.at, s.seq, s.fn = t, seq, fn
	s.pos = int32(len(e.heap))
	e.heap = append(e.heap, id)
	e.siftUp(len(e.heap) - 1)
	return Timer{e: e, slot: id, gen: s.gen}
}

// AtEach schedules fn(i) to run at each at[i], firing exactly as len(at)
// consecutive At calls would: it claims their scheduling seqs now, so every
// same-instant tie with other events resolves as if all of them were
// queued, but only the stream's next event sits in the queue. at must be
// non-decreasing and not before now (a violation panics, as in At); it is
// read as the stream runs, so the caller must not change it until the last
// event has fired. The stream's events cannot be cancelled.
func (e *Engine) AtEach(at []Time, fn func(i int)) {
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	for i, t := range at {
		if t < e.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
		}
		if i > 0 && t < at[i-1] {
			panic(fmt.Sprintf("sim: AtEach times decrease at index %d (%v after %v)", i, t, at[i-1]))
		}
	}
	if len(at) == 0 {
		return
	}
	s := &eventStream{e: e, at: at, fn: fn, seq0: e.seq + 1}
	e.seq += uint64(len(at))
	s.fire = s.step
	e.push(at[0], s.seq0, s.fire)
}

// eventStream is one AtEach call in flight: event next is queued under seq
// seq0+next, and fire (allocated once) is every event's function.
type eventStream struct {
	e    *Engine
	at   []Time
	fn   func(int)
	seq0 uint64
	next int
	fire func()
}

// step runs the due event, queueing its successor first so the stream is
// visible in the queue while fn runs.
func (s *eventStream) step() {
	i := s.next
	s.next++
	if s.next < len(s.at) {
		s.e.push(s.at[s.next], s.seq0+uint64(s.next), s.fire)
	}
	s.fn(i)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Reschedule moves a still-pending event to a new absolute time, keeping
// its scheduling seq — and with it the event's rank among same-instant
// ties. It reports whether the timer was live; a fired, stopped or zero
// timer is left untouched. The fluid network uses this to claim its
// completion event's position in the tie order at churn time while fixing
// the actual deadline later, at the end-of-instant flush.
func (e *Engine) Reschedule(t Timer, at Time) bool {
	if t.e == nil {
		return false
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v before now %v", at, e.now))
	}
	s := &e.slots[t.slot]
	if s.gen != t.gen || s.pos < 0 {
		return false // already fired, stopped, or slot recycled
	}
	s.at = at
	if !e.siftDown(int(s.pos)) {
		e.siftUp(int(s.pos))
	}
	return true
}

// AddFlusher registers an end-of-instant hook. Flushers run on the engine
// goroutine in registration order, once per flush, after every Net churned
// in the instant has filled: a sampler reads settled rates whenever it was
// registered. See Engine.dirty.
func (e *Engine) AddFlusher(fn func()) {
	if fn == nil {
		panic("sim: registering nil flusher")
	}
	e.flushers = append(e.flushers, fn)
}

// restamp gives the live event t a fresh scheduling seq and moves it to at:
// the key Stop followed by At would give it, without releasing and
// re-taking its slot. A fired, stopped or zero timer is scheduled anew with
// fn.
func (e *Engine) restamp(t Timer, at Time, fn func()) Timer {
	if t.e != nil {
		if s := &e.slots[t.slot]; s.gen == t.gen && s.pos >= 0 {
			e.seq++
			s.at, s.seq = at, e.seq
			if !e.siftDown(int(s.pos)) {
				e.siftUp(int(s.pos))
			}
			return t
		}
	}
	return e.At(at, fn)
}

// runFlush runs a due end-of-instant flush, reporting whether it did: every
// listed Net fills, in churn order, then the registered flushers run. Nets
// fill independently (a fill touches only its own Net, and Reschedule keeps
// the completion event's seq), so the listing order cannot move a result.
// A fill or a flusher may schedule new events, including events at the
// current instant, and a flusher that churns a Net lists it for a further
// flush (the caller loops).
func (e *Engine) runFlush() bool {
	if len(e.dirty) == 0 {
		return false
	}
	for _, n := range e.dirty {
		n.listed = false
		n.flush()
	}
	e.dirty = e.dirty[:0]
	for _, fn := range e.flushers {
		fn()
	}
	return true
}

// Step executes the next event, advancing the clock to its timestamp. It
// reports whether an event was executed. (Cancelled events are removed at
// Stop time, so every queued event is live.) Before the clock advances past
// the current instant — and before reporting the queue drained — a due
// end-of-instant flush runs; flushed work may queue same-instant events,
// which are then executed first.
func (e *Engine) Step() bool {
	for len(e.heap) == 0 || e.slots[e.heap[0]].at > e.now {
		if !e.runFlush() {
			break
		}
	}
	if len(e.heap) == 0 {
		return false
	}
	id := e.heap[0]
	s := &e.slots[id]
	e.now = s.at
	e.nSteps++
	fn := s.fn
	e.removeAt(0)
	fn()
	return true
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, leaving later events
// queued, and advances the clock to min(deadline, last event time). It
// reports whether the queue drained. Production code drains the engine with
// Run or Step; RunUntil stays exported because rt's tests stop a shared
// engine mid-run with it (internal/rt/start_test.go).
func (e *Engine) RunUntil(deadline Time) bool {
	for {
		if len(e.heap) > 0 && e.slots[e.heap[0]].at <= deadline {
			e.Step()
			continue
		}
		// The horizon (or the queue) is exhausted; deferred work may still
		// queue events within it.
		if !e.runFlush() {
			break
		}
	}
	if e.now < deadline && len(e.heap) > 0 {
		e.now = deadline
	}
	return len(e.heap) == 0
}

// Reset rewinds the engine to time zero with an empty queue and no pending
// flush while keeping its grown arena capacity and its registered flushers,
// so a pooled engine/machine pair can serve a fresh run without re-wiring
// its hooks. Every slot generation is bumped, so Timer handles from the
// previous run can never touch the recycled slots; a stale Stop or
// Reschedule is a no-op exactly as if the event had fired.
func (e *Engine) Reset() {
	e.heap = e.heap[:0]
	e.free = e.free[:0]
	for i := range e.slots {
		s := &e.slots[i]
		s.fn = nil
		s.pos = -1
		s.gen++
		e.free = append(e.free, int32(i))
	}
	e.now = 0
	e.seq = 0
	e.nSteps = 0
	for _, n := range e.dirty {
		n.listed = false
	}
	e.dirty = e.dirty[:0]
}
