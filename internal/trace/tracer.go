// Package trace records execution timelines and renders them as Chrome
// trace-event JSON (load chrome://tracing or Perfetto) or as a plain-text
// Gantt chart — the role Paraver traces play in the paper's workflow.
package trace

import (
	"fmt"
	"strconv"
	"sync"

	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// Tracer merges execution events from many sources — per-machine runtimes,
// fluid networks and link samplers, and a cluster dispatcher — into one
// Chrome trace-event timeline loadable in Perfetto or chrome://tracing.
//
// The model follows the trace-event format: each attached machine is one
// "process" (pid), with one thread lane per core for task spans, a "sched"
// lane for job spans, steal markers and dispatch instants, and dynamically
// allocated lanes for transfer and flow spans (overlapping spans on one tid
// do not nest in the viewers, so concurrent transfers/flows spread across
// first-fit sub-lanes). Per-link bandwidth utilization and per-machine
// queue depth are recorded as ph=C counter series.
//
// Tracing observes and never perturbs: callbacks only copy data under the
// tracer's own mutex, never schedule events, touch simulation state, or
// consume random numbers — a run with a Tracer attached is bit-identical to
// the same run without one, and the trace bytes themselves are deterministic
// at a fixed seed. The mutex makes a single Tracer safe to share across the
// parallel cells of an Experiment (each cell a distinct pid).
//
// Note the pooling interaction: AttachMachine registers hooks on the
// machine's engine and network that cannot be detached, so a traced machine
// must not be recycled into a pool serving untraced runs (core keeps traced
// machines out of its machine pool for exactly this reason).
type Tracer struct {
	mu    sync.Mutex
	byPid map[int]*proc
}

// NewTracer returns an empty tracer ready for AttachMachine.
func NewTracer() *Tracer { return &Tracer{byPid: make(map[int]*proc)} }

// span is one closed ph=X event.
type span struct {
	tid  int
	key  string // dynamic-lane group key; "" for fixed core/sched lanes
	name string
	ts   sim.Time
	dur  sim.Time
	args string // preformatted JSON object, or ""
}

// counter is one ph=C sample.
type counter struct {
	name string
	ts   sim.Time
	args string // preformatted JSON object of series values
}

// instant is one ph=i marker on the sched lane.
type instant struct {
	name string
	ts   sim.Time
	args string // preformatted JSON object, or ""
}

// subLane tracks one sub-lane of a dynamic lane group: its assigned tid and
// the end time of the last span placed on it (first-fit reuse).
type subLane struct {
	tid int
	end sim.Time
}

// flowOpen is the copied-out state of an in-flight fluid flow (Flow structs
// are recycled by the network, so everything needed at close is captured at
// start).
type flowOpen struct {
	ts    sim.Time
	key   string // lane group: the last path resource ("mc0", "port1", ...)
	bytes float64
}

// proc is the per-pid event buffer. Buffers are independent, so parallel
// experiment cells writing distinct pids never interleave events; rendering
// walks pids in sorted order, keeping output deterministic.
type proc struct {
	pid     int
	name    string
	cores   int
	sockets int

	schedTid  int
	nextTid   int
	laneNames []string // indexed by tid
	subs      map[string][]subLane
	flowLanes []string // flow lane groups in first-use order (Gantt rows)

	spans    []span
	counters []counter
	instants []instant

	// Live (not yet closed) state.
	openXfer []sim.Time // [core*sockets+home] start time, -1 when idle
	flows    map[*sim.Flow]flowOpen
	jobOpen  bool
	jobName  string
	jobTs    sim.Time

	// Counter dedup state: a sample identical to the last emitted one is
	// dropped (flushes fire at every churn instant; most change nothing on
	// a given machine).
	lastMem   []float64
	lastLink  []float64
	cntInit   bool
	lastQueue int
	queueInit bool
}

func newProc(pid int, name string, cores, sockets int) *proc {
	p := &proc{
		pid:     pid,
		name:    name,
		cores:   cores,
		sockets: sockets,
		subs:    make(map[string][]subLane),
		flows:   make(map[*sim.Flow]flowOpen),
	}
	for c := 0; c < cores; c++ {
		p.laneNames = append(p.laneNames, fmt.Sprintf("core %d", c))
	}
	p.schedTid = cores
	p.laneNames = append(p.laneNames, "sched")
	p.nextTid = cores + 1
	if cores > 0 && sockets > 0 {
		p.openXfer = make([]sim.Time, cores*sockets)
		for i := range p.openXfer {
			p.openXfer[i] = -1
		}
		p.lastMem = make([]float64, sockets)
		p.lastLink = make([]float64, sockets)
	}
	return p
}

// laneFor returns the tid for a span on dynamic lane group `key` spanning
// [ts, end): the first existing sub-lane free at ts, or a fresh one. Callers
// hold the tracer mutex.
func (p *proc) laneFor(key string, ts, end sim.Time) int {
	subs := p.subs[key]
	for i := range subs {
		if subs[i].end <= ts {
			subs[i].end = end
			return subs[i].tid
		}
	}
	tid := p.nextTid
	p.nextTid++
	name := key
	if len(subs) > 0 {
		name = fmt.Sprintf("%s.%d", key, len(subs))
	}
	p.laneNames = append(p.laneNames, name)
	p.subs[key] = append(subs, subLane{tid: tid, end: end})
	return tid
}

// ensureProc returns the buffer for pid, creating a bare one (no core
// lanes) for pids that were never attached to a machine.
func (tr *Tracer) ensureProc(pid int) *proc {
	p := tr.byPid[pid]
	if p == nil {
		p = newProc(pid, fmt.Sprintf("pid %d", pid), 0, 0)
		tr.byPid[pid] = p
	}
	return p
}

// AttachMachine registers machine m as process pid (panicking on a duplicate
// pid) and returns an rt.Observer to configure on the runtime(s) executing
// over m. The observer records task spans per core, transfer spans per core
// group, and steal instants; independently of it, the tracer hooks m's fluid
// network for flow spans and registers an end-of-instant engine flusher
// sampling per-link utilization counters — so flows and counters are traced
// even when the runtime's Observer slot is taken by a user observer. The
// engine runs flushers after every churned network has filled, so the
// sampler reads settled rates.
func (tr *Tracer) AttachMachine(m *machine.Machine, pid int, name string) rt.Observer {
	tr.mu.Lock()
	if _, dup := tr.byPid[pid]; dup {
		tr.mu.Unlock()
		panic(fmt.Sprintf("trace: pid %d attached twice", pid))
	}
	p := newProc(pid, name, m.Cores(), m.Sockets())
	tr.byPid[pid] = p
	tr.mu.Unlock()

	obs := &machObserver{tr: tr, p: p, m: m}
	m.Net().SetFlowHooks(obs.flowStart, obs.flowEnd)
	m.Engine().AddFlusher(obs.sample)
	return obs
}

// machObserver binds one attached machine's callbacks to its proc buffer.
type machObserver struct {
	tr *Tracer
	p  *proc
	m  *machine.Machine
}

var (
	_ rt.Observer         = (*machObserver)(nil)
	_ rt.TransferObserver = (*machObserver)(nil)
	_ rt.StealObserver    = (*machObserver)(nil)
)

// TaskStart implements rt.Observer (spans are recorded at TaskEnd, when
// both endpoints are known).
func (o *machObserver) TaskStart(*rt.Task) {}

// TaskEnd implements rt.Observer: one ph=X span on the executing core's lane.
func (o *machObserver) TaskEnd(t *rt.Task) {
	o.tr.mu.Lock()
	args := ""
	if t.Stolen {
		args = `{"stolen":true}`
	}
	o.p.spans = append(o.p.spans, span{
		tid: t.Core, name: t.Label, ts: t.StartAt, dur: t.EndAt - t.StartAt, args: args,
	})
	o.tr.mu.Unlock()
}

// TransferStart implements rt.TransferObserver. A core runs one phase at a
// time and a phase launches at most one transfer per home socket, so
// (core, home) uniquely keys the open transfer.
func (o *machObserver) TransferStart(t *rt.Task, home, exec int, bytes int64) {
	o.tr.mu.Lock()
	o.p.openXfer[t.Core*o.p.sockets+home] = o.m.Engine().Now()
	o.tr.mu.Unlock()
}

// TransferEnd implements rt.TransferObserver: one ph=X span on the core's
// transfer lane group ("xfer c<core>", sub-laned on overlap).
func (o *machObserver) TransferEnd(t *rt.Task, home, exec int, bytes int64) {
	now := o.m.Engine().Now()
	o.tr.mu.Lock()
	p := o.p
	idx := t.Core*p.sockets + home
	ts := p.openXfer[idx]
	p.openXfer[idx] = -1
	key := fmt.Sprintf("xfer c%d", t.Core)
	tid := p.laneFor(key, ts, now)
	args := fmt.Sprintf(`{"home":%d,"exec":%d,"bytes":%d}`, home, exec, bytes)
	p.spans = append(p.spans, span{tid: tid, key: key, name: "xfer", ts: ts, dur: now - ts, args: args})
	o.tr.mu.Unlock()
}

// TaskStolen implements rt.StealObserver: a ph=i marker on the sched lane.
func (o *machObserver) TaskStolen(t *rt.Task, victim, thief int) {
	now := o.m.Engine().Now()
	o.tr.mu.Lock()
	o.p.instants = append(o.p.instants, instant{
		name: "steal",
		ts:   now,
		args: fmt.Sprintf(`{"task":%s,"victim":%d,"thief":%d}`, QuoteString(t.Label), victim, thief),
	})
	o.tr.mu.Unlock()
}

// flowStart copies out the flow's identity (Flow structs are recycled by
// the network after completion).
func (o *machObserver) flowStart(f *sim.Flow) {
	now := o.m.Engine().Now()
	o.tr.mu.Lock()
	path := f.Path()
	o.p.flows[f] = flowOpen{ts: now, key: path[len(path)-1].Name(), bytes: f.Volume()}
	o.tr.mu.Unlock()
}

// flowEnd closes the span on the lane group of the flow's last path
// resource — the home port for remote transfers, the memory controller for
// local ones — so each link's lane shows exactly the traffic crossing it.
func (o *machObserver) flowEnd(f *sim.Flow) {
	now := o.m.Engine().Now()
	o.tr.mu.Lock()
	p := o.p
	fo, ok := p.flows[f]
	if !ok {
		o.tr.mu.Unlock()
		return // started before the tracer attached
	}
	delete(p.flows, f)
	if _, seen := p.subs[fo.key]; !seen {
		p.flowLanes = append(p.flowLanes, fo.key)
	}
	tid := p.laneFor(fo.key, fo.ts, now)
	args := fmt.Sprintf(`{"bytes":%s}`, strconv.FormatFloat(fo.bytes, 'g', -1, 64))
	p.spans = append(p.spans, span{tid: tid, key: fo.key, name: "flow", ts: fo.ts, dur: now - fo.ts, args: args})
	o.tr.mu.Unlock()
}

// sample runs as an end-of-instant engine flusher, after the network's own
// reallocation flush: it reads the settled per-resource rates and emits
// "mem util" / "link util" counter samples, deduplicated against the last
// emitted values (flushes fire at every churn instant on the shared engine;
// most leave a given machine's links unchanged).
func (o *machObserver) sample() {
	now := o.m.Engine().Now()
	mcs, ports := o.m.Controllers(), o.m.Ports()
	o.tr.mu.Lock()
	p := o.p
	memChanged, linkChanged := !p.cntInit, !p.cntInit
	for s, r := range mcs {
		if u := resUtil(r); u != p.lastMem[s] {
			p.lastMem[s] = u
			memChanged = true
		}
	}
	for s, r := range ports {
		if u := resUtil(r); u != p.lastLink[s] {
			p.lastLink[s] = u
			linkChanged = true
		}
	}
	p.cntInit = true
	if memChanged {
		p.counters = append(p.counters, counter{name: "mem util", ts: now, args: utilArgs(mcs, p.lastMem)})
	}
	if linkChanged {
		p.counters = append(p.counters, counter{name: "link util", ts: now, args: utilArgs(ports, p.lastLink)})
	}
	o.tr.mu.Unlock()
}

// resUtil is the instantaneous utilization fraction of a resource.
func resUtil(r *sim.Resource) float64 { return r.Rate() / r.Capacity() }

// utilArgs formats one counter sample: {"mc0":0.5,"mc1":0,...}.
func utilArgs(rs []*sim.Resource, vals []float64) string {
	b := make([]byte, 0, 16*len(rs))
	b = append(b, '{')
	for s, r := range rs {
		if s > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, r.Name()...)
		b = append(b, '"', ':')
		b = strconv.AppendFloat(b, vals[s], 'g', -1, 64)
	}
	b = append(b, '}')
	return string(b)
}

// BeginJob opens a job span on pid's sched lane. Machines run one job at a
// time, so at most one job may be open per pid; a second BeginJob replaces
// the first without emitting it.
func (tr *Tracer) BeginJob(pid int, name string, ts sim.Time) {
	tr.mu.Lock()
	p := tr.ensureProc(pid)
	p.jobOpen, p.jobName, p.jobTs = true, name, ts
	tr.mu.Unlock()
}

// EndJob closes the open job span at ts with the given preformatted JSON
// args object ("" for none). A close with no open job is a no-op.
func (tr *Tracer) EndJob(pid int, ts sim.Time, argsJSON string) {
	tr.mu.Lock()
	p := tr.ensureProc(pid)
	if p.jobOpen {
		p.jobOpen = false
		p.spans = append(p.spans, span{
			tid: p.schedTid, name: p.jobName, ts: p.jobTs, dur: ts - p.jobTs, args: argsJSON,
		})
	}
	tr.mu.Unlock()
}

// Instant records a ph=i marker (process scope) on pid's sched lane, with a
// preformatted JSON args object ("" for none). The cluster dispatcher uses
// it for dispatch decisions.
func (tr *Tracer) Instant(pid int, name string, ts sim.Time, argsJSON string) {
	tr.mu.Lock()
	p := tr.ensureProc(pid)
	p.instants = append(p.instants, instant{name: name, ts: ts, args: argsJSON})
	tr.mu.Unlock()
}

// QueueDepth records pid's "queue" counter series (jobs queued on the
// machine), deduplicating repeats of the same depth.
func (tr *Tracer) QueueDepth(pid int, ts sim.Time, depth int) {
	tr.mu.Lock()
	p := tr.ensureProc(pid)
	if !p.queueInit || depth != p.lastQueue {
		p.queueInit, p.lastQueue = true, depth
		p.counters = append(p.counters, counter{
			name: "queue", ts: ts, args: fmt.Sprintf(`{"queued":%d}`, depth),
		})
	}
	tr.mu.Unlock()
}

// Spans returns the number of closed spans recorded across all pids.
func (tr *Tracer) Spans() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, p := range tr.byPid {
		n += len(p.spans)
	}
	return n
}

// QuoteString returns s as a JSON string literal, for building the
// preformatted args objects the Tracer's primitives accept.
func QuoteString(s string) string { return string(appendQuoted(nil, s)) }

// appendQuoted appends s as a JSON string literal.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, fmt.Sprintf(`\u%04x`, c)...)
		}
	}
	return append(b, '"')
}
