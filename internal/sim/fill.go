package sim

import (
	"math"
	"slices"
)

// fillStep is one entry of a resource group's fill log. Entry 0 holds the
// group's state at the start of the fill; entry i > 0 the i-th step the
// group took and its state after that step.
type fillStep struct {
	bottleneck bool    // a bottleneck step; false for a cap step
	share      float64 // the round's share
	maxCap     float64 // cap steps: the largest cap the step froze
	// The group's state after the step: its smallest resource quotient and
	// smallest unfrozen cap (its part of the next round's minima), and its
	// unfrozen class count.
	minQ, minCap float64
	left         int
}

// fillGroup is a resource group: the resources Net.gres[lo:hi], in
// ascending id. Every live class's path lies inside one group.
type fillGroup struct {
	lo, hi int
	log    []fillStep // the group's start state and steps in the last fill
	pos    int        // replay cursor: log[pos] is the current state; -1 while computing
	dirty  bool       // a crossing list of the group changed since the last fill
}

// waterfill computes the max-min fair rate for every active flow
// (water-filling with per-flow caps) and settles the resource integrals.
//
// Water-filling: repeatedly find the binding constraint — either the
// bottleneck resource (smallest per-unfrozen-flow fair share) or an unfrozen
// flow whose own cap is at or below that share — freeze the affected flows,
// subtract their consumption from every resource they cross, repeat.
//
// The pass is bit-for-bit equivalent to the naive per-flow ladder (kept as
// the test-only referenceWaterfill): every residual sees the same float
// subtractions in the same order, and every flow gets the same rate. It
// saves work on three levels, each exact:
//
//   - Classes. Rounds run over flow classes. Members of a class see the
//     same shares and the same cap in every round, so they freeze in the
//     same round at the same rate. A bottleneck round subtracts one value,
//     share, everywhere, and the order of equal subtractions does not
//     matter, so a class subtracts share c.n times per path entry, clamping
//     at zero after each subtraction as the ladder does. Only a cap round
//     can freeze classes with different rates on one resource. There the
//     ladder's order, ascending flow id, matters, so such a resource replays
//     its crossing list; a resource that sees one cap subtracts it the
//     tallied number of times.
//   - Groups. No class path leaves its group, so within a round each group's
//     residuals change independently of every other group's: a round is one
//     step per group, and a bottleneck step still tests its resources in
//     ascending id, each test seeing the subtractions before it. Rounds stay
//     global. A round's share is the minimum over all groups; it is a cap
//     round when any group holds an unfrozen cap at or below that share; and
//     a bottleneck step freezes, at the global share, the classes crossing
//     every resource whose quotient is within share*(1+1e-12). That
//     tolerance couples groups: a group whose own
//     quotient is a hair above another group's freezes at the other group's
//     share, and another group's share can split one group's caps across two
//     cap rounds. Fills run separately per group miss both and drift by ulps
//     from the ladder.
//   - Replay. A group's step depends only on the group's state, the round's
//     kind and the round's share, and the group's state at the start of a
//     fill depends only on its crossing lists. So a group none of whose
//     crossing lists changed since the last fill starts where it started
//     then, and a step it takes now repeats the step it logged then when the
//     inputs agree: a bottleneck step at a bit-equal share, or a cap step
//     that freezes the same classes — the largest cap the logged step froze
//     ≤ share < the smallest cap it left unfrozen. Such a group adopts the
//     logged state without touching a residual. At the first step that
//     differs, it rebuilds its state by rerunning the matched prefix and
//     computes from there. Whether a group acts in a round at all is decided
//     from its current minima, the same test for both paths.
//
// The settle pass hands rates to the flows of computed groups and re-sums
// their resources in crossing-list order, ascending flow id, the ladder's
// order. Resources of replayed groups keep their rates, which are the sums
// they would get, but still fold their integrals, since Carried and
// Utilization are observable. Everything runs on per-resource and per-Net
// scratch: no allocation, no map iteration, no sorting.
func (n *Net) waterfill(now Time) {
	groups, minQ, minCap, left := n.groups, n.gMinQ, n.gMinCap, n.gLeft
	share, capMin := math.Inf(1), math.Inf(1)
	live := n.live[:0]
	for g := range groups {
		grp := &groups[g]
		if grp.dirty {
			grp.dirty, grp.pos = false, -1
			grp.log = extend(grp.log[:0])
			n.loadGroup(n.gres[grp.lo:grp.hi], &grp.log[0])
		} else {
			grp.pos = 0
		}
		if s := &grp.log[0]; s.left > 0 {
			minQ[g], minCap[g], left[g] = s.minQ, s.minCap, s.left
			live = append(live, g)
			share = min(share, s.minQ)
			capMin = min(capMin, s.minCap)
		}
	}
	// Capacities are finite, so every group with an unfrozen class has a
	// finite quotient and each round's share is finite: an uncapped class
	// never binds in a cap round. One pass per round runs the steps and
	// folds the next round's minima. Quotients and caps are never NaN or
	// -0, so the builtin min picks what a < comparison would.
	for len(live) > 0 {
		bottleneck := capMin > share
		round, limit := share, share*(1+1e-12)
		share, capMin = math.Inf(1), math.Inf(1)
		k := 0
		for _, g := range live {
			if bottleneck && minQ[g] <= limit || !bottleneck && minCap[g] <= round {
				grp := &groups[g]
				if p := grp.pos; p >= 0 && grp.log[p+1].repeats(bottleneck, round) {
					s := &grp.log[p+1]
					grp.pos = p + 1
					minQ[g], minCap[g], left[g] = s.minQ, s.minCap, s.left
				} else {
					n.computeStep(g, bottleneck, round)
				}
			}
			if left[g] > 0 {
				live[k] = g
				k++
				share = min(share, minQ[g])
				capMin = min(capMin, minCap[g])
			}
		}
		live = live[:k]
	}
	n.live = live
	// Settling a resource whose rate is and stays zero changes neither its
	// integral nor anything Carried reports, so ungrouped resources and idle
	// replayed ones are skipped.
	for g := range groups {
		grp := &groups[g]
		if grp.pos >= 0 {
			for _, r := range n.gres[grp.lo:grp.hi] {
				if r.rate != 0 {
					r.settle(now, r.rate)
				}
			}
			continue
		}
		for _, r := range n.gres[grp.lo:grp.hi] {
			sum := 0.0
			for _, f := range r.crossing {
				f.rate = f.cls.rate
				sum += f.rate
			}
			r.settle(now, sum)
		}
	}
}

// repeats reports whether a round of the given kind and share, run from the
// state before logged step s, takes exactly step s: a bottleneck step at a
// bit-equal share, or a cap step that freezes the same classes.
func (s *fillStep) repeats(bottleneck bool, share float64) bool {
	if bottleneck {
		return s.bottleneck && math.Float64bits(s.share) == math.Float64bits(share)
	}
	return !s.bottleneck && s.maxCap <= share && share < s.minCap
}

// computeStep computes group g's step of the round. A group still
// replaying first rebuilds its state by rerunning the logged steps it
// matched, then drops the rest of its log.
func (n *Net) computeStep(g int, bottleneck bool, share float64) {
	grp := &n.groups[g]
	res := n.gres[grp.lo:grp.hi]
	if p := grp.pos; p >= 0 {
		n.loadGroup(res, &grp.log[0])
		for i := 1; i <= p; i++ {
			n.step(res, &grp.log[i]) // rewrites the entry with equal values
		}
		grp.log = grp.log[:p+1]
		grp.pos = -1
	}
	grp.log = extend(grp.log)
	s := &grp.log[len(grp.log)-1]
	s.bottleneck, s.share = bottleneck, share
	n.step(res, s)
	n.gMinQ[g], n.gMinCap[g], n.gLeft[g] = s.minQ, s.minCap, s.left
}

// extend lengthens log by one entry, to be written in place: a fillStep
// assembled on the stack and copied in costs a store-forwarding stall.
func extend(log []fillStep) []fillStep {
	if len(log) < cap(log) {
		return log[:len(log)+1]
	}
	return append(log, fillStep{})
}

// loadGroup resets the fill state of a group's resources and classes — full
// residual capacities, every class unfrozen — and records the group's
// initial state in s.
func (n *Net) loadGroup(res []*Resource, s *fillStep) {
	minQ, minCap, left := math.Inf(1), math.Inf(1), 0
	for _, r := range res {
		r.residual = r.capacity
		r.unfrozen = len(r.crossing)
		if len(r.crossing) > 0 {
			if q := r.capacity / float64(len(r.crossing)); q < minQ {
				minQ = q
			}
		}
		for _, c := range r.classes {
			c.frozenIn = 0
			left++
			if c.maxRate < minCap {
				minCap = c.maxRate
			}
		}
	}
	s.minQ, s.minCap, s.left = minQ, minCap, left
}

// step runs the step s names — its kind at its share — on the group with
// resources res, and records in s the largest cap it froze and the group's
// state after it.
func (n *Net) step(res []*Resource, s *fillStep) {
	n.stamp++
	minCap, left := math.Inf(1), 0
	if s.bottleneck {
		n.bottleneckStep(res, s.share, n.stamp)
		s.maxCap = 0
		for _, r := range res {
			for _, c := range r.classes {
				if c.frozenIn == 0 {
					left++
					if c.maxRate < minCap {
						minCap = c.maxRate
					}
				}
			}
		}
	} else {
		s.maxCap, minCap, left = n.capStep(res, s.share, n.stamp)
	}
	minQ := math.Inf(1)
	for _, r := range res {
		if r.unfrozen > 0 {
			if q := r.residual / float64(r.unfrozen); q < minQ {
				minQ = q
			}
		}
	}
	s.minQ, s.minCap, s.left = minQ, minCap, left
}

// bottleneckStep freezes at share every unfrozen class crossing a resource
// whose quotient is within the ladder's tolerance of share, found through
// the resource's crossing list. Resources are tested in ascending id, each
// test seeing the subtractions before it.
func (n *Net) bottleneckStep(res []*Resource, share float64, stamp int) {
	froze := false
	limit := share * (1 + 1e-12)
	for _, r := range res {
		if r.unfrozen == 0 || r.residual/float64(r.unfrozen) > limit {
			continue
		}
		for _, f := range r.crossing {
			c := f.cls
			if c.frozenIn != 0 {
				continue
			}
			c.frozenIn, c.rate = stamp, share
			froze = true
			for _, p := range c.path {
				for i := 0; i < c.n; i++ {
					p.residual = clampSub(p.residual, share)
				}
				p.unfrozen -= c.n
			}
		}
	}
	if !froze {
		panic("sim: max-min water-filling made no progress")
	}
}

// capStep freezes at its cap every unfrozen class whose cap is at or below
// share, and returns the largest cap it froze and the smallest cap and
// number of the classes still unfrozen. The subtractions are tallied per
// resource and applied afterwards, in the ladder's order.
func (n *Net) capStep(res []*Resource, share float64, stamp int) (maxCap, minCap float64, left int) {
	touched := n.touched[:0]
	minCap = math.Inf(1)
	for _, r := range res {
		for _, c := range r.classes {
			if c.frozenIn != 0 {
				continue
			}
			if c.maxRate > share {
				left++
				if c.maxRate < minCap {
					minCap = c.maxRate
				}
				continue
			}
			c.frozenIn, c.rate = stamp, c.maxRate
			if c.maxRate > maxCap {
				maxCap = c.maxRate
			}
			for _, p := range c.path {
				if p.capCount == 0 {
					touched = append(touched, p)
					p.capRate = c.maxRate
				} else if p.capRate != c.maxRate {
					p.capRate = math.NaN()
				}
				p.capCount += c.n
			}
		}
	}
	for _, r := range touched {
		if rate := r.capRate; !math.IsNaN(rate) {
			for i := 0; i < r.capCount; i++ {
				r.residual = clampSub(r.residual, rate)
			}
		} else {
			for _, f := range r.crossing {
				if f.cls.frozenIn == stamp {
					r.residual = clampSub(r.residual, f.cls.rate)
				}
			}
		}
		r.unfrozen -= r.capCount
		r.capCount = 0
	}
	n.touched = touched[:0]
	return maxCap, minCap, left
}

// inGroup reports whether path lies inside one resource group.
func inGroup(path []*Resource) bool {
	g := path[0].gid
	if g < 0 {
		return false
	}
	for _, r := range path[1:] {
		if r.gid != g {
			return false
		}
	}
	return true
}

// find returns the root of id's union-find tree, halving the path.
func (n *Net) find(id int) int {
	uf := n.uf
	for uf[id] != id {
		uf[id] = uf[uf[id]]
		id = uf[id]
	}
	return id
}

// joinGroups makes path one group, merging the groups it touches and
// adopting its ungrouped resources, and rebuilds the dense layout from the
// union-find forest: every resource ever joined keeps its group, whether or
// not a live path still crosses it. Groups are numbered in ascending order
// of their lowest resource id. Indices move, so every group is dirty.
func (n *Net) joinGroups(path []*Resource) {
	uf := n.uf
	root := -1
	for _, r := range path {
		if uf[r.id] < 0 {
			uf[r.id] = r.id
		}
		if x := n.find(r.id); root < 0 {
			root = x
		} else if x != root {
			uf[x] = root
		}
	}
	for _, r := range n.resources {
		r.gid = -1
	}
	ng := 0
	for i, r := range n.resources {
		if uf[i] < 0 {
			continue
		}
		rt := n.resources[n.find(i)]
		if rt.gid < 0 {
			rt.gid = ng
			ng++
		}
		r.gid = rt.gid
	}
	// Keep the groups' log buffers: the slots are reused by index.
	n.groups = slices.Grow(n.groups[:0], ng)[:ng]
	for g := range n.groups {
		n.groups[g].lo, n.groups[g].hi, n.groups[g].dirty = 0, 0, true
	}
	for _, r := range n.resources {
		if r.gid >= 0 {
			n.groups[r.gid].hi++
		}
	}
	lo := 0
	for g := range n.groups {
		grp := &n.groups[g]
		size := grp.hi
		grp.lo, grp.hi = lo, lo
		lo += size
	}
	n.gres = slices.Grow(n.gres[:0], lo)[:lo]
	for _, r := range n.resources {
		if r.gid >= 0 {
			grp := &n.groups[r.gid]
			n.gres[grp.hi] = r
			grp.hi++
		}
	}
	n.gMinQ = slices.Grow(n.gMinQ[:0], ng)[:ng]
	n.gMinCap = slices.Grow(n.gMinCap[:0], ng)[:ng]
	n.gLeft = slices.Grow(n.gLeft[:0], ng)[:ng]
}
