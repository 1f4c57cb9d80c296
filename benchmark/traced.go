package main

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"numadag/internal/cluster"
	"numadag/internal/core"
	"numadag/internal/machine"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/xrand"
)

// layers accumulates what the traced rounds measured at each call boundary.
// Times are host nanoseconds summed over all traced rounds; counts are per
// round and must repeat exactly from one traced round to the next.
type layers struct {
	rounds int

	// Batch cells.
	cellNs    []int64 // host time of each cell: build/wait + install + run + audit
	buildNs   int64   // snapshot builds (or waits for one) inside cells
	installNs []int64 // rt.NewRuntime + Snapshot.Install, per cell or job
	prepareNs int64   // Preparer.Prepare
	runNs     int64   // Runtime.Run minus Prepare
	auditNs   int64   // AuditSchedule
	sinkNs    int64   // every sink's Emit for one cell or job
	sinkCalls int64
	pickNs    int64
	roundNs   int64 // wall of the traced production-path calls

	// Fleet replays, timed standalone on the round's own inputs.
	arrivalsNs, idealNs, prebuildNs, dispatchNs, loopNs int64

	// Deterministic per-round counts.
	c counts
}

// counts are the machine-independent work counters of one round.
type counts struct {
	runs, builds                            int64
	tasks, steals, deferred                 int64
	localBytes, remoteBytes                 int64
	picks, windows, cutBytes                int64
	events, flows, flushes                  int64
	bytesMoved                              float64
	maxQueue                                int64
	utilization, speedupGeomean, p99RespSim float64
}

// timedPolicy forwards every rt.Policy extension the runtime looks for to
// the wrapped policy, timing PickSocket and Prepare on the way. The runtime
// sees identical answers, so the schedule is unchanged.
type timedPolicy struct {
	inner  rt.Policy
	ctx    context.Context
	picks  int64
	pickNs int64
	prepNs int64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) PickSocket(r *rt.Runtime, t *rt.Task) int {
	t0 := time.Now()
	s := p.inner.PickSocket(r, t)
	p.pickNs += int64(time.Since(t0))
	p.picks++
	return s
}

func (p *timedPolicy) Prepare(r *rt.Runtime) {
	prep, ok := p.inner.(rt.Preparer)
	if !ok {
		return
	}
	t0 := time.Now()
	pprof.Do(p.ctx, pprof.Labels("layer", "policy.prepare"), func(context.Context) { prep.Prepare(r) })
	p.prepNs += int64(time.Since(t0))
}

func (p *timedPolicy) VetoSteal() bool {
	v, ok := p.inner.(rt.StealVeto)
	return ok && v.VetoSteal()
}

func (p *timedPolicy) TaskDone(r *rt.Runtime, t *rt.Task) {
	if h, ok := p.inner.(rt.TaskDoneHook); ok {
		h.TaskDone(r, t)
	}
}

// layer runs fn under a pprof label naming the layer and returns its host
// time. fn receives the labelled context, under which a nested layer
// restores this one's label when it returns.
func layer(ctx context.Context, name string, fn func(context.Context)) int64 {
	t0 := time.Now()
	pprof.Do(ctx, pprof.Labels("layer", name), fn)
	return int64(time.Since(t0))
}

// cellTrace is what one traced batch cell measured.
type cellTrace struct {
	res                                    core.CellResult
	cellNs, buildNs, installNs             int64
	prepareNs, runNs, auditNs, pickNs      int64
	picks, windows, events, flows, flushes int64
	bytesMoved                             float64
	built                                  bool
	partitioned                            bool
	err                                    error
}

// snapEntry is one per-round snapshot slot: the first cell to need a graph
// builds it, concurrent cells wait on the once.
type snapEntry struct {
	once sync.Once
	snap *rt.Snapshot
	err  error
}

// traced mirrors core.Experiment's cell path through public calls: each
// worker reuses one machine (Machine.Reset between cells), installs the
// round's snapshot into a fresh runtime under a timed policy wrapper, runs,
// audits and releases. Sinks receive the cells afterwards, in canonical
// order.
func (b *batch) traced(lt *layers) (outcome, error) {
	cells, err := b.exp.Cells()
	if err != nil {
		return outcome{}, err
	}
	mc := b.exp.Machines[0]
	entries := make(map[string]*snapEntry, len(b.exp.Apps))
	for _, app := range b.exp.Apps {
		entries[app] = &snapEntry{}
	}
	traces := make([]cellTrace, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := machine.New(mc, sim.NewEngine())
			var flows, flushes int64
			m.Engine().AddFlusher(func() { flushes++ })
			m.Net().SetFlowHooks(func(*sim.Flow) { flows++ }, nil)
			ctx := context.Background()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				flows, flushes = 0, 0
				ct := &traces[i]
				b.tracedCell(ctx, ct, cells[i], m, entries[cells[i].App])
				ct.flows, ct.flushes = flows, flushes
				if ct.err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	d, sinks, tab := b.sinks()
	ctx := context.Background()
	var c counts
	for i := range traces {
		ct := &traces[i]
		if ct.err != nil {
			return outcome{}, ct.err
		}
		var emitErr error
		lt.sinkNs += layer(ctx, "core.sink", func(context.Context) {
			for _, s := range sinks {
				if emitErr == nil {
					emitErr = s.Emit(ct.res)
				}
			}
		})
		lt.sinkCalls++
		if emitErr != nil {
			return outcome{}, fmt.Errorf("sink: %w", emitErr)
		}
		lt.cellNs = append(lt.cellNs, ct.cellNs)
		lt.installNs = append(lt.installNs, ct.installNs)
		lt.buildNs += ct.buildNs
		lt.prepareNs += ct.prepareNs
		lt.runNs += ct.runNs
		lt.auditNs += ct.auditNs
		lt.pickNs += ct.pickNs
		st := &ct.res.Stats
		c.runs++
		if ct.built {
			c.builds++
		}
		c.tasks += int64(st.TasksRun)
		c.steals += int64(st.Steals)
		c.deferred += int64(st.Deferred)
		c.localBytes += st.LocalBytes
		c.remoteBytes += st.RemoteBytes
		c.picks += ct.picks
		c.windows += ct.windows
		if ct.partitioned {
			c.cutBytes += st.CutBytes
		}
		c.events += ct.events
		c.flows += ct.flows
		c.flushes += ct.flushes
		c.bytesMoved += ct.bytesMoved
	}
	for _, s := range sinks {
		if err := s.Close(); err != nil {
			return outcome{}, err
		}
	}
	wall := time.Since(t0)
	lt.roundNs += int64(wall)
	if tab != nil {
		c.speedupGeomean = tab.Table().Get("geomean", "RGP+LAS")
	}
	if err := lt.addCounts(c); err != nil {
		return outcome{}, err
	}
	return outcome{runs: d.n, digest: d.h, simMs: d.simMs, wall: wall}, nil
}

// tracedCell runs one grid cell the way core's audited run path does,
// timing each layer call.
func (b *batch) tracedCell(ctx context.Context, ct *cellTrace, cell core.Cell, m *machine.Machine, e *snapEntry) {
	start := time.Now()
	ct.buildNs = layer(ctx, "workload", func(context.Context) {
		e.once.Do(func() {
			ct.built = true
			e.snap, _, _, e.err = buildSnapshot(cell.App, b.exp.Scale, m.Config())
		})
	})
	if e.err != nil {
		ct.err = e.err
		return
	}
	cfg := core.Config{
		App:     cell.App,
		Scale:   b.exp.Scale,
		Policy:  cell.Policy,
		Machine: m.Config(),
		Runtime: b.exp.Runtime,
	}
	cfg.Runtime.Seed = cell.Seed
	inner, err := policy.New(cell.Policy)
	if err != nil {
		ct.err = err
		return
	}
	pol := &timedPolicy{inner: inner}
	var r *rt.Runtime
	ct.installNs = layer(ctx, "rt.install", func(context.Context) {
		m.Reset()
		r = rt.NewRuntime(m, pol, cfg.Runtime)
		e.snap.Install(r)
	})
	var stats rt.Result
	runNs := layer(ctx, "rt.run", func(ctx context.Context) {
		pol.ctx = ctx
		stats = r.Run()
	})
	ct.auditNs = layer(ctx, "rt.audit", func(context.Context) { err = r.AuditSchedule() })
	if err != nil {
		ct.err = fmt.Errorf("%s/%s: %w", cell.App, cell.Policy, err)
		return
	}
	ct.events = int64(m.Engine().Steps())
	ct.bytesMoved = m.Net().TotalBytes
	r.Release()
	ct.cellNs = int64(time.Since(start))
	ct.prepareNs = pol.prepNs
	ct.runNs = runNs - pol.prepNs
	ct.pickNs = pol.pickNs
	ct.picks = pol.picks
	if rgp, ok := inner.(*policy.RGP); ok {
		ct.partitioned = true
		ct.windows = int64(rgp.WindowsPartitioned())
	}
	ct.res = core.CellResult{Cell: cell, Config: cfg, Stats: stats}
}

// addCounts records one traced round's counts, failing when they differ
// from an earlier traced round's: the counters are deterministic.
func (lt *layers) addCounts(c counts) error {
	if lt.rounds > 0 && c != lt.c {
		return fmt.Errorf("deterministic counts moved between traced rounds: %+v then %+v", lt.c, c)
	}
	lt.c = c
	lt.rounds++
	return nil
}

// queueWatch is a cluster.Observer counting submitted and completed jobs and
// the deepest queue a dispatch saw. It only reads its arguments.
type queueWatch struct {
	submits, completes int64
	maxQueue           int
}

func (q *queueWatch) JobSubmit(*cluster.Job) { q.submits++ }

func (q *queueWatch) JobDispatch(_ *cluster.Job, _ []int, queued int) {
	q.maxQueue = max(q.maxQueue, queued)
}

func (q *queueWatch) JobStart(*cluster.Job, int) {}
func (q *queueWatch) JobComplete(*cluster.Job)   { q.completes++ }

// timedSink times every Emit of the wrapped sink.
type timedSink struct {
	core.Sink
	ns, calls int64
}

func (s *timedSink) Emit(res core.CellResult) error {
	t0 := time.Now()
	err := s.Sink.Emit(res)
	s.ns += int64(time.Since(t0))
	s.calls++
	return err
}

// traced runs cluster.Run with a counting observer and a timed sink, then
// times the run's fixed-cost stages standalone on identical inputs:
// arrivals, snapshot prebuild, the IdealDC comparator, snapshot installs and
// a dispatcher Pick/Update replay of the same job stream. What remains of
// cluster.Run's wall is the event loop.
func (f *fleet) traced(lt *layers) (outcome, error) {
	ctx := context.Background()
	cfg := f.cfg
	watch := &queueWatch{}
	cfg.Observer = watch
	sink := &timedSink{Sink: core.NewJSONLSink(io.Discard)}
	var res *cluster.Result
	var err error
	runNs := layer(ctx, "cluster.run", func(context.Context) { res, err = cluster.Run(cfg, sink) })
	if err != nil {
		return outcome{}, err
	}
	if watch.completes != int64(len(res.Jobs)) || watch.submits != int64(len(res.Jobs)) {
		return outcome{}, fmt.Errorf("observer saw %d submits and %d completions for %d jobs",
			watch.submits, watch.completes, len(res.Jobs))
	}

	var jobs []cluster.Job
	arrNs := layer(ctx, "cluster.arrivals", func(context.Context) { jobs, err = cluster.Arrivals(cfg.Tenants, cfg.Seed, cfg.Jobs) })
	if err != nil {
		return outcome{}, err
	}
	built := make(map[string]*rt.Snapshot)
	preNs := layer(ctx, "cluster.prebuild", func(context.Context) {
		for i := range jobs {
			spec := jobs[i].Spec
			if _, ok := built[spec]; ok || err != nil {
				continue
			}
			built[spec], _, _, err = buildSnapshot(spec, cfg.Scale, cfg.Machine)
		}
	})
	if err != nil {
		return outcome{}, err
	}
	work := make([]float64, len(jobs))
	for i := range jobs {
		work[i] = built[jobs[i].Spec].TotalFlops()
	}
	idealNs := layer(ctx, "cluster.ideal", func(context.Context) { cluster.NewIdealDC(&cfg.Machine, cfg.Machines).Respond(jobs, work) })
	dispNs, err := replayDispatch(ctx, cfg, res.Jobs)
	if err != nil {
		return outcome{}, err
	}
	if err := replayInstalls(ctx, lt, cfg, res.Jobs, built); err != nil {
		return outcome{}, err
	}

	lt.arrivalsNs += arrNs
	lt.prebuildNs += preNs
	lt.idealNs += idealNs
	lt.dispatchNs += dispNs
	lt.loopNs += runNs - arrNs - preNs - idealNs - sink.ns
	lt.sinkNs += sink.ns
	lt.sinkCalls += sink.calls
	lt.roundNs += runNs

	c := counts{
		runs:        int64(len(res.Jobs)),
		builds:      int64(len(built)),
		events:      int64(res.Steps),
		bytesMoved:  res.TotalBytes,
		maxQueue:    int64(watch.maxQueue),
		utilization: res.Stats.MeanUtilization(),
		p99RespSim:  res.Stats.All.Response.Quantile(0.99) / float64(sim.Millisecond),
	}
	for i := range res.Jobs {
		st := &res.Jobs[i].Stats
		c.tasks += int64(st.TasksRun)
		c.steals += int64(st.Steals)
		c.deferred += int64(st.Deferred)
		c.localBytes += st.LocalBytes
		c.remoteBytes += st.RemoteBytes
	}
	if err := lt.addCounts(c); err != nil {
		return outcome{}, err
	}
	o := fleetOutcome(res)
	o.wall = time.Duration(runNs)
	return o, nil
}

// replayDispatch drives a fresh dispatcher, seeded as cluster.Run seeds
// its own, through one Pick/Update(+1) per arrival and one Update(-1) per
// completion, in simulated-time order, and returns the host time it took.
func replayDispatch(ctx context.Context, cfg cluster.Config, jobs []cluster.Job) (int64, error) {
	type ev struct {
		at  sim.Time
		job int
		dep bool
	}
	evs := make([]ev, 0, 2*len(jobs))
	for i := range jobs {
		evs = append(evs, ev{jobs[i].SubmitAt, i, false}, ev{jobs[i].EndAt, i, true})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	d, err := cluster.NewDispatcher(cfg.Dispatcher)
	if err != nil {
		return 0, err
	}
	d.Init(cfg.Machines, xrand.New(core.DeriveSeed(cfg.Seed, -1)))
	placed := make([]int, len(jobs))
	return layer(ctx, "cluster.dispatch", func(context.Context) {
		for _, e := range evs {
			if e.dep {
				d.Update(placed[e.job], -1)
				continue
			}
			m := d.Pick()
			d.Update(m, +1)
			placed[e.job] = m
		}
	}), nil
}

// replayInstalls installs every job's snapshot into a fresh pooled runtime
// on one machine, timing each rt.NewRuntime + Snapshot.Install, as
// cluster.Run does once per job.
func replayInstalls(ctx context.Context, lt *layers, cfg cluster.Config, jobs []cluster.Job, snaps map[string]*rt.Snapshot) error {
	m := machine.New(cfg.Machine, sim.NewEngine())
	pol, err := policy.New(cfg.Policy)
	if err != nil {
		return err
	}
	opts := cfg.Runtime
	pprof.Do(ctx, pprof.Labels("layer", "rt.install"), func(context.Context) {
		for i := range jobs {
			opts.Seed = jobs[i].Seed
			t0 := time.Now()
			r := rt.NewRuntime(m, pol, opts)
			snaps[jobs[i].Spec].Install(r)
			lt.installNs = append(lt.installNs, int64(time.Since(t0)))
			r.Release()
		}
	})
	return nil
}
