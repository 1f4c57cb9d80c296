package sim

import (
	"math"
	"slices"
)

// fillGroup is a resource group: the resources Net.gres[lo:hi], in
// ascending id, and the in-flight flows whose paths lie in them. Every live
// class's path lies inside one group.
type fillGroup struct {
	lo, hi int
	flows  []*Flow // in-flight flows, ascending id
	due    *Flow   // earliest (deadline, id) of flows, nil if all starved
	listed bool    // on Net.churned
}

// waterfill computes the max-min fair rate for every flow of the groups on
// the churn worklist (water-filling with per-flow caps) and settles their
// resource integrals.
//
// No class path leaves its resource group, so max-min fairness separates
// across groups: each group fills on its own, and a group none of whose
// crossing lists changed since the last flush keeps its rates. A churned
// group runs its own rounds. Each round takes the group's share, the
// smallest per-unfrozen-flow quotient of its resources. When an unfrozen
// class's cap is at or below that share, the round is a cap step: it
// freezes every such class at its cap. Otherwise it is a bottleneck step:
// it freezes at the share every class crossing a resource whose quotient is
// within share*(1+1e-12). Rounds repeat until every class is frozen.
//
// Rounds run over flow classes, not flows. Members of a class see the same
// shares and the same cap in every round, so they freeze in the same round
// at the same rate: a bottleneck step subtracts share c.n times per path
// entry, clamping at zero after each subtraction. Only a cap step can
// freeze classes with different rates on one resource; such a resource
// replays its crossing list in ascending flow id, and a resource that sees
// one cap subtracts it the tallied number of times.
//
// The settle pass hands each filled group's rates to its flows and re-sums
// its resources in crossing-list order, ascending flow id. A clean group's
// resources keep their rates and integrals untouched: Carried progresses
// them to any instant. Everything runs on per-resource and per-Net scratch:
// no allocation, no map iteration, no sorting.
func (n *Net) waterfill(now Time) {
	for _, g := range n.churned {
		res := n.gres[n.groups[g].lo:n.groups[g].hi]
		n.fillGroup(res)
		for _, r := range res {
			sum := 0.0
			for _, f := range r.crossing {
				f.rate = f.cls.rate
				sum += f.rate
			}
			r.settle(now, sum)
		}
	}
}

// fillGroup runs the water-filling rounds of the group with resources res,
// leaving every class's rate in the class. Capacities are finite, so a group
// with an unfrozen class has a finite share: an uncapped class never binds
// in a cap step.
func (n *Net) fillGroup(res []*Resource) {
	share, minCap, left := loadGroup(res)
	for left > 0 {
		n.stamp++
		if minCap <= share {
			minCap, left = n.capStep(res, share, n.stamp)
		} else {
			minCap, left = n.bottleneckStep(res, share, n.stamp)
		}
		share = math.Inf(1)
		for _, r := range res {
			if r.unfrozen > 0 {
				share = min(share, r.residual/float64(r.unfrozen))
			}
		}
	}
}

// loadGroup resets the fill state of a group's resources and classes — full
// residual capacities, every class unfrozen — and returns the group's first
// share, its smallest cap and its class count.
func loadGroup(res []*Resource) (share, minCap float64, left int) {
	share, minCap = math.Inf(1), math.Inf(1)
	for _, r := range res {
		r.residual = r.capacity
		r.unfrozen = len(r.crossing)
		if len(r.crossing) > 0 {
			share = min(share, r.capacity/float64(len(r.crossing)))
		}
		for _, c := range r.classes {
			c.frozenIn = 0
			left++
			minCap = min(minCap, c.maxRate)
		}
	}
	return share, minCap, left
}

// bottleneckStep freezes at share every unfrozen class crossing a resource
// whose quotient is within share*(1+1e-12), found through the resource's
// crossing list, and returns the smallest cap and number of the classes
// still unfrozen. Resources are tested in ascending id, each test seeing the
// subtractions before it.
func (n *Net) bottleneckStep(res []*Resource, share float64, stamp int) (minCap float64, left int) {
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
	minCap = math.Inf(1)
	for _, r := range res {
		for _, c := range r.classes {
			if c.frozenIn == 0 {
				left++
				minCap = min(minCap, c.maxRate)
			}
		}
	}
	return minCap, left
}

// capStep freezes at its cap every unfrozen class whose cap is at or below
// share, and returns the smallest cap and number of the classes still
// unfrozen. The subtractions are tallied per resource and applied
// afterwards, in ascending flow id where the caps differ.
func (n *Net) capStep(res []*Resource, share float64, stamp int) (minCap float64, left int) {
	touched := n.touched[:0]
	minCap = math.Inf(1)
	for _, r := range res {
		for _, c := range r.classes {
			if c.frozenIn != 0 {
				continue
			}
			if c.maxRate > share {
				left++
				minCap = min(minCap, c.maxRate)
				continue
			}
			c.frozenIn, c.rate = stamp, c.maxRate
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
	return minCap, left
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
// of their lowest resource id. Indices move, so every group joins the churn
// worklist, and each group's flow list is rebuilt in its own slice from
// the crossing lists of the flows' first resources, in ascending id.
func (n *Net) joinGroups(path []*Resource) {
	for g := range n.groups {
		grp := &n.groups[g]
		*grp = fillGroup{flows: grp.flows[:0]}
	}
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
	n.groups = slices.Grow(n.groups[:0], ng)[:ng]
	if cap(n.churned) < len(n.resources) {
		// Every group holds a resource: size the worklist once.
		n.churned = make([]int, 0, len(n.resources))
	}
	n.churned = n.churned[:0]
	for g := range n.groups {
		grp := &n.groups[g]
		if grp.flows == nil {
			// A group carries a few flows (about four on the bullion):
			// start its list at a size that rarely grows.
			grp.flows = make([]*Flow, 0, 8)
		}
		*grp = fillGroup{flows: grp.flows[:0], listed: true}
		n.churned = append(n.churned, g)
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
	for _, r := range n.resources {
		for i, f := range r.crossing {
			// A path naming its first resource twice lists the flow there
			// twice, adjacently.
			if f.path[0] == r && (i == 0 || r.crossing[i-1] != f) {
				grp := &n.groups[r.gid]
				grp.flows = append(grp.flows, f)
			}
		}
	}
	for g := range n.groups {
		slices.SortFunc(n.groups[g].flows, func(a, b *Flow) int { return a.id - b.id })
	}
}
