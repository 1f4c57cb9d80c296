// Package cluster runs the simulator in online multi-tenant service mode:
// instead of one job on one machine, an open-loop arrival process submits a
// stream of DAG jobs from many tenants to a fleet of NUMA machines sharing
// one simulated clock. A dispatcher places each arriving job, every machine
// runs its queue through an unmodified scheduling policy, and streaming
// histograms report the tail-latency and fairness metrics datacenter papers
// care about — per-job slowdown against an aggregate-capacity fluid model
// (IdealDC), p50/p95/p99 response, per-tenant fairness, and a cluster
// utilization timeline.
//
// Determinism carries over from batch mode: arrivals are a pure function of
// (tenants, seed), dispatch randomness comes from a dedicated seeded
// stream, and the fleet shares ONE sim.Engine, so a fixed-seed cluster run
// is bit-identical across repeats and across snapshot-prebuild worker
// counts.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"numadag/internal/apps"
	"numadag/internal/core"
	"numadag/internal/machine"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/trace"
	"numadag/internal/workload"
	"numadag/internal/xrand"
)

// Job is one unit of the arrival stream: a tenant's workload instance with
// its service-mode timeline. Arrivals fills the identity fields; Run fills
// the rest.
type Job struct {
	ID       int
	Tenant   int
	Spec     string
	SubmitAt sim.Time
	// Machine is the fleet index the dispatcher placed the job on (-1
	// before placement).
	Machine int
	// StartAt/EndAt bracket execution; EndAt - SubmitAt is the response
	// time (queueing included).
	StartAt sim.Time
	EndAt   sim.Time
	// Seed is the per-job runtime seed, core.DeriveSeed(cfg.Seed, ID).
	Seed uint64
	// Ideal is the job's IdealDC fluid response time; Slowdown is
	// (EndAt-SubmitAt)/Ideal.
	Ideal    sim.Time
	Slowdown float64
	// Stats is the job's full single-run result from the runtime.
	Stats rt.Result
}

// Config describes one service-mode run.
type Config struct {
	// Machines is the fleet size; every machine uses the same Machine
	// config. Must be >= 1.
	Machines int
	Machine  machine.Config
	// Policy is the per-job scheduling policy registry spec; every job on
	// every machine runs it unchanged.
	Policy  string
	Runtime rt.Options
	// Scale resolves workload specs without an explicit scale parameter.
	Scale apps.Scale
	// Tenants drive the arrival processes; Jobs caps the stream length.
	Tenants []Tenant
	Jobs    int
	// Seed is the base seed: tenant streams, dispatch sampling and per-job
	// runtime seeds all derive from it.
	Seed uint64
	// Dispatcher is the placement spec ("kchoices?d=2", "idle"); empty
	// means kchoices with d=2.
	Dispatcher string
	// Procs bounds the snapshot-prebuild worker pool (<= 0 means 1). The
	// simulation proper is single-threaded on one engine, so results are
	// bit-identical across Procs values — a property the determinism test
	// pins.
	Procs int
	// Audit verifies every job's schedule against the TDG semantics after
	// it completes (slower; on by default in tests).
	Audit bool
	// Observer optionally receives job lifecycle callbacks (submit,
	// dispatch, start, complete) on the simulation goroutine. Observing
	// never perturbs the run.
	Observer Observer
	// Trace optionally records the whole run — task/transfer/flow spans and
	// link counters per machine (pids are fleet indices), job spans,
	// dispatch instants and queue-depth counters — into a Chrome-trace
	// sink. Traced runs skip the runtime pool (tracer observers hold *Task
	// beyond each job).
	Trace *trace.Tracer
}

// Result is a completed service-mode run.
type Result struct {
	// Jobs is the arrival stream in job-ID order with all timeline fields
	// filled.
	Jobs []Job
	// Stats holds the streaming distributions, fairness and the
	// utilization timeline.
	Stats *Stats
	// Makespan is the completion time of the last job; Steps the shared
	// engine's event count; TotalBytes the fleet-wide transferred volume.
	Makespan   sim.Time
	Steps      uint64
	TotalBytes float64
}

// CompletionHash digests the completion stream — (ID, machine, start, end)
// in the order jobs finished — into one uint64. Two runs are behaviorally
// identical iff their hashes match; the cluster determinism goldens pin it.
func (r *Result) CompletionHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	order := make([]int, 0, len(r.Jobs))
	for i := range r.Jobs {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := &r.Jobs[order[a]], &r.Jobs[order[b]]
		if ja.EndAt != jb.EndAt {
			return ja.EndAt < jb.EndAt
		}
		return ja.ID < jb.ID
	})
	for _, i := range order {
		j := &r.Jobs[i]
		put(uint64(j.ID))
		put(uint64(j.Machine))
		put(uint64(j.StartAt))
		put(uint64(j.EndAt))
	}
	return h.Sum64()
}

func (c *Config) validate() error {
	if c.Machines < 1 {
		return fmt.Errorf("cluster: need at least one machine, got %d", c.Machines)
	}
	if c.Policy == "" {
		return fmt.Errorf("cluster: no policy")
	}
	if c.Jobs < 1 {
		return fmt.Errorf("cluster: need at least one job, got %d", c.Jobs)
	}
	if err := c.Runtime.Validate(); err != nil {
		return err
	}
	return c.Machine.Validate()
}

// fleetRun is the in-flight state of one Run call.
type fleetRun struct {
	cfg      *Config
	eng      *sim.Engine
	machines []*machine.Machine
	disp     Dispatcher
	sampler  CandidateSampler // disp's sampling view, nil if not implemented
	snaps    map[string]*rt.Snapshot
	jobs     []Job
	queues   [][]int // job IDs waiting per machine
	busy     []bool
	pumping  []bool
	stats    *Stats
	obs      []Observer    // trace adapter, then user observer
	machObs  []rt.Observer // per-machine tracer observers (nil when untraced)
	done     int
	err      error
}

// notifyDispatch/notifyStart/notifyComplete fan one job event out to the
// configured observers.
func (f *fleetRun) notifySubmit(j *Job) {
	for _, o := range f.obs {
		o.JobSubmit(j)
	}
}

func (f *fleetRun) notifyDispatch(j *Job, queued int) {
	var cands []int
	if f.sampler != nil {
		cands = f.sampler.LastCandidates()
	}
	for _, o := range f.obs {
		o.JobDispatch(j, cands, queued)
	}
}

func (f *fleetRun) notifyStart(j *Job, queued int) {
	for _, o := range f.obs {
		o.JobStart(j, queued)
	}
}

func (f *fleetRun) notifyComplete(j *Job) {
	for _, o := range f.obs {
		o.JobComplete(j)
	}
}

// prebuildSnapshots resolves every distinct workload spec in the stream and
// captures its task graph once, fanning the builds across procs workers.
// Each spec's snapshot is a pure function of (spec, scale), so the worker
// count cannot affect the simulation — only wall-clock time.
func prebuildSnapshots(jobs []Job, mc machine.Config, scale apps.Scale, procs int) (map[string]*rt.Snapshot, error) {
	specs := make([]string, 0, 8)
	seen := make(map[string]bool)
	for i := range jobs {
		if !seen[jobs[i].Spec] {
			seen[jobs[i].Spec] = true
			specs = append(specs, jobs[i].Spec)
		}
	}
	if procs < 1 {
		procs = 1
	}
	if procs > len(specs) {
		procs = len(specs)
	}
	snaps := make(map[string]*rt.Snapshot, len(specs))
	errs := make([]error, len(specs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(specs) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				var snap *rt.Snapshot
				w, err := workload.New(specs[i], scale)
				if err == nil {
					snap, err = w.Snapshot(mc)
				}
				mu.Lock()
				snaps[specs[i]], errs[i] = snap, err
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return snaps, nil
}

// arrive handles one job's submission: dispatch, enqueue, and kick the
// target machine's queue.
func (f *fleetRun) arrive(id int) {
	if f.err != nil {
		return
	}
	job := &f.jobs[id]
	f.notifySubmit(job)
	m := f.disp.Pick()
	f.disp.Update(m, +1)
	job.Machine = m
	f.queues[m] = append(f.queues[m], id)
	f.stats.sample(f.eng.Now(), 0, +1)
	f.notifyDispatch(job, len(f.queues[m]))
	f.pump(m)
}

// pump starts queued jobs on machine m until it is busy or drained. The
// pumping guard flattens the recursion a synchronously-completing job (zero
// tasks) would otherwise cause: its completion callback runs inside Start,
// marks the machine free and calls pump again, which must become a no-op so
// the outer loop picks up the next job.
func (f *fleetRun) pump(m int) {
	if f.pumping[m] {
		return
	}
	f.pumping[m] = true
	for f.err == nil && !f.busy[m] && len(f.queues[m]) > 0 {
		id := f.queues[m][0]
		f.queues[m] = f.queues[m][1:]
		f.busy[m] = true
		f.stats.sample(f.eng.Now(), +1, -1)
		f.start(id, m)
	}
	f.pumping[m] = false
}

// start launches job id on machine m: fresh pooled runtime, installed
// snapshot, per-job derived seed, async Start with the completion callback
// closing the service loop.
func (f *fleetRun) start(id, m int) {
	job := &f.jobs[id]
	pol, err := policy.New(f.cfg.Policy)
	if err != nil {
		f.err = err
		return
	}
	opts := f.cfg.Runtime
	opts.Seed = job.Seed
	if opts.Observer == nil && f.machObs != nil {
		opts.Observer = f.machObs[m]
	}
	r := rt.NewRuntime(f.machines[m], pol, opts)
	f.snaps[job.Spec].Install(r)
	job.StartAt = f.eng.Now()
	// Notify before Start: a zero-task job completes synchronously inside
	// Start, and JobStart must precede its JobComplete.
	f.notifyStart(job, len(f.queues[m]))
	r.Start(func(res rt.Result) { f.finish(r, id, m, res) })
}

func (f *fleetRun) finish(r *rt.Runtime, id, m int, res rt.Result) {
	job := &f.jobs[id]
	job.EndAt = f.eng.Now()
	job.Stats = res
	if f.cfg.Audit && f.err == nil {
		if err := f.auditJob(r, job); err != nil {
			f.err = err
		}
	}
	if f.cfg.Runtime.Observer == nil && f.machObs == nil {
		// The Release-vs-Observer contract: with any observer configured —
		// the user's or the tracer's — *Task pointers outlive the job, so
		// the runtime must not be recycled into the pool.
		r.Release()
	}
	f.disp.Update(m, -1)
	f.busy[m] = false
	f.done++
	response := job.EndAt - job.SubmitAt
	if response < 1 {
		response = 1
	}
	job.Slowdown = float64(response) / float64(job.Ideal)
	f.stats.observe(job, response, job.Slowdown)
	f.stats.sample(job.EndAt, -1, 0)
	f.notifyComplete(job)
	f.pump(m)
}

func (f *fleetRun) auditJob(r *rt.Runtime, job *Job) error {
	if err := r.AuditSchedule(); err != nil {
		return fmt.Errorf("cluster: job %d (%s): %w", job.ID, job.Spec, err)
	}
	return nil
}

// Run executes one service-mode simulation and streams every job's result,
// in job-ID order, through the given sinks (the same core.Sink machinery
// batch experiments use; a job's Cell carries its tenant name as the
// Variant and its arrival index as the Index).
func Run(cfg Config, sinks ...core.Sink) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	jobs, err := Arrivals(cfg.Tenants, cfg.Seed, cfg.Jobs)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cluster: arrival stream is empty (trace tenants exhausted)")
	}
	snaps, err := prebuildSnapshots(jobs, cfg.Machine, cfg.Scale, cfg.Procs)
	if err != nil {
		return nil, err
	}
	// Fluid-model ideal response per job, for slowdown normalization.
	work := make([]float64, len(jobs))
	for i := range jobs {
		jobs[i].Seed = core.DeriveSeed(cfg.Seed, jobs[i].ID)
		work[i] = snaps[jobs[i].Spec].TotalFlops()
	}
	ideal := NewIdealDC(&cfg.Machine, cfg.Machines).Respond(jobs, work)
	for i := range jobs {
		jobs[i].Ideal = ideal[i]
	}

	dispSpec := cfg.Dispatcher
	if dispSpec == "" {
		dispSpec = "kchoices?d=2"
	}
	disp, err := NewDispatcher(dispSpec)
	if err != nil {
		return nil, err
	}
	// The dispatcher's stream must not collide with tenant streams
	// (replicates 0..len(Tenants)-1) or job streams (0..Jobs-1), so it
	// derives from replicate -1.
	disp.Init(cfg.Machines, xrand.New(core.DeriveSeed(cfg.Seed, -1)))

	eng := sim.NewEngine()
	f := &fleetRun{
		cfg:      &cfg,
		eng:      eng,
		machines: make([]*machine.Machine, cfg.Machines),
		disp:     disp,
		snaps:    snaps,
		jobs:     jobs,
		queues:   make([][]int, cfg.Machines),
		busy:     make([]bool, cfg.Machines),
		pumping:  make([]bool, cfg.Machines),
		stats:    newStats(cfg.Tenants, cfg.Machines),
	}
	if s, ok := disp.(CandidateSampler); ok {
		f.sampler = s
	}
	for i := range f.machines {
		f.machines[i] = machine.New(cfg.Machine, eng)
	}
	// The tracer's sampling flushers read settled link rates: the engine
	// fills every churned Net before it runs any flusher.
	if cfg.Trace != nil {
		f.machObs = make([]rt.Observer, cfg.Machines)
		for i, m := range f.machines {
			f.machObs[i] = cfg.Trace.AttachMachine(m, i, fmt.Sprintf("machine %d", i))
		}
		f.obs = append(f.obs, &traceObserver{tr: cfg.Trace, cfg: &cfg})
	}
	if cfg.Observer != nil {
		f.obs = append(f.obs, cfg.Observer)
	}
	// The stream is sorted by submit time, and AtEach queues one arrival
	// at a time under the seqs per-job At calls would have claimed here.
	submit := make([]sim.Time, len(jobs))
	for i := range jobs {
		submit[i] = jobs[i].SubmitAt
	}
	eng.AtEach(submit, func(i int) { f.arrive(jobs[i].ID) })
	eng.Run()
	if f.err != nil {
		return nil, f.err
	}
	if f.done != len(jobs) {
		return nil, fmt.Errorf("cluster: stalled — %d of %d jobs completed", f.done, len(jobs))
	}

	res := &Result{Jobs: jobs, Stats: f.stats, Steps: eng.Steps()}
	for i := range jobs {
		if jobs[i].EndAt > res.Makespan {
			res.Makespan = jobs[i].EndAt
		}
	}
	for _, m := range f.machines {
		res.TotalBytes += m.Net().TotalBytes
	}
	if err := emit(&cfg, res, sinks); err != nil {
		return nil, err
	}
	return res, nil
}

// emit streams every job through the sinks in job-ID order and closes them,
// mirroring the Experiment sink contract.
func emit(cfg *Config, res *Result, sinks []core.Sink) error {
	var firstErr error
	for i := range res.Jobs {
		j := &res.Jobs[i]
		cr := core.CellResult{
			Cell: core.Cell{
				Index:   j.ID,
				App:     j.Spec,
				Policy:  cfg.Policy,
				Machine: cfg.Machine.Name,
				Variant: cfg.Tenants[j.Tenant].Name,
				Seed:    j.Seed,
			},
			Config: core.Config{
				App:     j.Spec,
				Scale:   cfg.Scale,
				Policy:  cfg.Policy,
				Machine: cfg.Machine,
				Runtime: cfg.Runtime,
			},
			Stats: j.Stats,
		}
		for _, s := range sinks {
			if err := s.Emit(cr); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			break
		}
	}
	for _, s := range sinks {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
