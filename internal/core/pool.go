package core

import (
	"fmt"
	"slices"
	"sync"

	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/workload"
)

// pool is an Experiment's one scheduler: it hands a grid's cells to the
// workers, builds and recycles the task graphs that several cells share,
// and lets the replicates of a seed-free run reuse its result. No worker
// waits while it has a cell to run.
//
// Graphs. resolve numbers each (workload, machine) task graph that more
// than one cell runs; a graph one cell alone runs is built in place, into
// that cell's runtime, and the pool never sees it. The first claimed cell
// of a shared graph builds its snapshot (Workload.Snapshot), and the others
// install it. The pool counts each graph's planned cells down as they are
// claimed, and counts the claimed cells that hold its snapshot: a run until
// its runtime is released, a copy until it is made. When both counts reach
// zero the snapshot's storage goes back to rt's free list, for the next
// graph's build to fill, under the rule rt.Snapshot.Recycle states. A cell
// whose runtime is never released (a traced or observed cell, or one that
// failed) keeps its hold, so its snapshot is left to the garbage collector,
// as is one whose build failed. The pool drops a graph once its last
// planned cell is claimed, and canonical order runs all of a workload's
// cells before the next workload's, so a sweep holds about one graph per
// worker however many distinct graphs it runs.
//
// Replicates. Replicate 0 of each (app, policy, machine, variant) group
// leads it; the group's other replicates follow. A leader whose audited
// run never reached its seed (rt.Runtime.SeedUsed) and ran with no tracer
// and no observer would give every follower the same result, so each
// follower becomes a copy of it instead of a run. The decision is the
// leader's, never the policy's: EP is seed-free on an app with expert
// placements and falls back to LAS on one without, and RGP+LAS is
// seed-free on a graph whose first window holds every task but places
// later windows with LAS.
//
// Waiting. A cell claimed while its graph is being built, or while its
// group's leader runs, is set aside, and its worker claims the next cell.
// A set-aside cell is claimed again, ahead of the unclaimed cells, once it
// no longer waits: a free leader's followers as copies, which any worker
// makes, and every other cell as a run. Only a worker with nothing else to
// claim takes a cell that still waits: it waits for the graph's build, or
// runs a follower beside its leader.
type pool struct {
	ps    []plan
	wls   map[string]workload.Workload
	seeds int // replicates per group

	mu   sync.Mutex
	next int // first cell not yet claimed
	// aside holds, in canonical order, the cells set aside while they
	// waited.
	aside []int
	// groups is indexed by leader index / seeds; nil when groups have no
	// followers.
	groups []group
	// graphs is indexed by plan.graph; a graph is dropped once its last
	// planned cell is claimed.
	graphs []*shared
	copies int // copy jobs claimed (test hook)
	// recycle returns a snapshot's storage to rt's free list; tests wrap it
	// to watch what the pool recycles.
	recycle func(*rt.Snapshot)
}

// group is one replicate group's leader state.
type group struct {
	finished bool
	// free marks a leader whose followers copy lead, a private clone of its
	// result.
	free bool
	lead rt.Result
}

// shared is a task graph several cells run. The pool's mu guards every
// field but snap and err, which the builder sets before it closes built.
type shared struct {
	snap *rt.Snapshot
	err  error
	// built is made when the first cell is claimed, and closed, with ready
	// set, once that cell has built the snapshot.
	built chan struct{}
	ready bool
	// left counts the planned cells not yet claimed, and holds the claimed
	// cells that still hold the snapshot.
	left, holds int
}

// job is a claimed cell: run cell i, or copy it from lead when lead is
// set. g is the cell's shared graph, nil for a graph built in place, and
// build marks the cell that builds g's snapshot.
type job struct {
	i     int
	lead  *rt.Result
	g     *shared
	build bool
}

// newPool returns the scheduler of the cells ps, whose workloads wls holds
// by spec and whose shared graphs resolve numbered below graphs.
func newPool(ps []plan, wls map[string]workload.Workload, seeds, graphs int) *pool {
	p := &pool{ps: ps, wls: wls, seeds: seeds, graphs: make([]*shared, graphs), recycle: (*rt.Snapshot).Recycle}
	for _, pl := range ps {
		if pl.graph >= 0 {
			if p.graphs[pl.graph] == nil {
				p.graphs[pl.graph] = new(shared)
			}
			p.graphs[pl.graph].left++
		}
	}
	if seeds > 1 {
		p.groups = make([]group, len(ps)/seeds)
	}
	return p
}

// claim returns the next job, or false when no cell is left to claim.
func (p *pool) claim() (job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, i := range p.aside {
		if !p.waits(i) {
			p.aside = slices.Delete(p.aside, k, k+1)
			return p.take(i), true
		}
	}
	for p.next < len(p.ps) {
		i := p.next
		p.next++
		if !p.waits(i) {
			return p.take(i), true
		}
		p.aside = append(p.aside, i)
	}
	if len(p.aside) == 0 {
		return job{}, false
	}
	i := p.aside[0]
	p.aside = p.aside[1:]
	return p.take(i), true
}

// waits reports whether cell i waits for its graph's build, which another
// worker runs, or for its group leader's run. The caller holds mu.
func (p *pool) waits(i int) bool {
	pl := &p.ps[i]
	if pl.graph >= 0 {
		if g := p.graphs[pl.graph]; g.built != nil && !g.ready {
			return true
		}
	}
	return pl.cell.Replicate > 0 && !p.groups[i/p.seeds].finished
}

// take claims cell i as a job. In the cell's shared graph it counts the
// cell down and gives it a hold, together, and the graph's first claimed
// cell builds the snapshot. The caller holds mu.
func (p *pool) take(i int) job {
	j := job{i: i}
	pl := &p.ps[i]
	if pl.cell.Replicate > 0 {
		if g := &p.groups[i/p.seeds]; g.free {
			j.lead = &g.lead
			p.copies++
		}
	}
	if pl.graph < 0 {
		return j
	}
	j.g = p.graphs[pl.graph]
	if j.g.built == nil {
		j.g.built = make(chan struct{})
		j.build = true
	}
	j.g.holds++
	if j.g.left--; j.g.left == 0 {
		p.graphs[pl.graph] = nil
	}
	return j
}

// run executes job j's cell. A graph the cell alone runs is built in place,
// into the cell's own runtime; a shared one is installed from its snapshot,
// which the cell holds until its runtime is released.
func (p *pool) run(cfg Config, j job) (RunResult, error) {
	if j.g == nil {
		w := p.wls[p.ps[j.i].cell.App]
		return runWith(cfg, &w, nil)
	}
	snap, err := p.snapshot(j)
	if err != nil {
		return RunResult{}, err
	}
	res, err := runWith(cfg, nil, snap)
	if err == nil && cfg.pooled() {
		p.release(j) // the runtime went back to the runtime pool
	}
	return res, err
}

// snapshot returns job j's snapshot: the builder builds it, and any other
// cell waits for the build, which is over unless the cell's worker had
// nothing else to claim.
func (p *pool) snapshot(j job) (*rt.Snapshot, error) {
	if j.build {
		pl := &p.ps[j.i]
		snap, err := p.wls[pl.cell.App].Snapshot(pl.mach)
		p.mu.Lock()
		j.g.snap, j.g.err, j.g.ready = snap, err, true
		p.mu.Unlock()
		close(j.g.built)
	}
	<-j.g.built
	return j.g.snap, j.g.err
}

// finish records the run of cell i. When i leads a group its followers stop
// waiting, and copy res if the run was free (seed-free, untraced and
// unobserved).
func (p *pool) finish(i int, res *rt.Result, free bool) {
	if p.groups == nil || p.ps[i].cell.Replicate != 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	g := &p.groups[i/p.seeds]
	g.finished = true
	if free {
		// The sinks receive res itself; copies come from a private clone.
		g.free, g.lead = true, res.Clone()
	}
}

// release ends job j's hold on its graph, once the run's runtime has gone
// back to the runtime pool or the copy is made, and recycles the snapshot
// after the graph's last hold.
func (p *pool) release(j job) {
	p.mu.Lock()
	j.g.holds--
	last := j.g.left == 0 && j.g.holds == 0
	p.mu.Unlock()
	if last {
		p.recycle(j.g.snap)
	}
}

// graphKey identifies a built task graph: the workload key (canonical spec,
// scale, generator seed) plus the machine topology — expert placements and
// data distributions depend on the socket layout, so the same spec on a
// different machine is a different graph.
func graphKey(w workload.Workload, mc machine.Config) string {
	return fmt.Sprintf("%s|%s/%dx%d", w.Key(), mc.Name, mc.Sockets, mc.CoresPerSocket)
}
