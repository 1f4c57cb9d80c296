package core

import (
	"sync"

	"numadag/internal/rt"
)

// pool hands a grid's cells to the workers and lets the replicates of a
// seed-free run reuse its result. Replicate 0 of each (app, policy,
// machine, variant) group leads it; the group's other replicates follow.
// A leader whose audited run never reached its seed (rt.Runtime.SeedUsed)
// and ran with no tracer and no observer would give every follower the
// same result, so each follower becomes a copy of it instead of a run. The
// decision is the leader's, never the policy's: EP is seed-free on an app
// with expert placements and falls back to LAS on one without.
//
// No worker ever waits on a leader. A follower claimed while its leader
// runs is set aside, and its worker claims the next cell. When the leader
// finishes, its worker copies the set-aside followers, or, if the leader
// used its seed, hands them back to be claimed ahead of the unclaimed
// cells. A worker with nothing left to claim runs a set-aside follower
// itself. A follower is set aside only if its policy spec has already
// produced a seed-free leader in this grid: a worker that sets a follower
// aside runs ahead, possibly onto the next task graph while the current
// one is still planned, so a seed-dependent grid claims and runs its cells
// in canonical order and holds no more snapshots than it would without
// the reuse.
type pool struct {
	ps    []plan
	seeds int // replicates per group

	mu   sync.Mutex
	next int // first cell not yet claimed
	// back holds the followers of leaders that used their seed, to be
	// claimed before next.
	back []int
	// aside holds the followers claimed while their leader was running.
	aside []int
	// groups is indexed by leader index / seeds; nil when groups have no
	// followers.
	groups []group
	// freeSpecs holds the policy specs that have produced a seed-free
	// leader.
	freeSpecs map[string]bool
}

// group is one replicate group's leader state.
type group struct {
	finished bool
	// lead is a seed-free leader's result, private to the pool, kept while
	// a follower may still be claimed from next.
	lead *rt.Result
}

// job is a claimed cell: run cell i, or copy it from lead when lead is set.
type job struct {
	i    int
	lead *rt.Result
}

func newPool(ps []plan, seeds int) *pool {
	p := &pool{ps: ps, seeds: seeds}
	if seeds > 1 {
		p.groups = make([]group, len(ps)/seeds)
		p.freeSpecs = make(map[string]bool)
	}
	return p
}

// claim returns the next job, or false when no cell is left to claim.
func (p *pool) claim() (job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.back) > 0 {
		i := p.back[0]
		p.back = p.back[1:]
		return job{i: i}, true
	}
	for p.next < len(p.ps) {
		i := p.next
		p.next++
		c := p.ps[i].cell
		if c.Replicate == 0 || p.groups == nil {
			return job{i: i}, true
		}
		g := &p.groups[i/p.seeds]
		switch {
		case g.lead != nil:
			lead := g.lead
			if c.Replicate == p.seeds-1 {
				g.lead = nil // the group's last follower
			}
			return job{i: i, lead: lead}, true
		case !g.finished && p.freeSpecs[c.Policy]:
			p.aside = append(p.aside, i)
			continue
		}
		return job{i: i}, true
	}
	if len(p.aside) > 0 {
		i := p.aside[0]
		p.aside = p.aside[1:]
		return job{i: i}, true
	}
	return job{}, false
}

// finish records the run of cell i and, when i leads a group, returns the
// set-aside followers its worker must copy from the returned result: all
// of them when the run was free (seed-free, untraced and unobserved), none
// when it was not, in which case they go back to the pool.
func (p *pool) finish(i int, res *rt.Result, free bool) ([]int, *rt.Result) {
	if p.groups == nil || p.ps[i].cell.Replicate != 0 {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var mine []int
	rest := p.aside[:0]
	for _, f := range p.aside {
		if f-p.ps[f].cell.Replicate == i {
			mine = append(mine, f)
		} else {
			rest = append(rest, f)
		}
	}
	p.aside = rest
	g := &p.groups[i/p.seeds]
	g.finished = true
	if !free {
		p.back = append(p.back, mine...)
		return nil, nil
	}
	p.freeSpecs[p.ps[i].cell.Policy] = true
	// The sinks receive res itself; copies come from a private clone.
	lead := res.Clone()
	if p.next < i+p.seeds {
		g.lead = &lead
	}
	return mine, &lead
}
