package partition

import (
	"numadag/internal/xrand"
)

// MatchingKind selects the coarsening matching heuristic.
type MatchingKind int

const (
	// HeavyEdgeMatching visits vertices in random order and matches each
	// with its unmatched neighbor of maximum edge weight — the standard
	// multilevel choice: heavy edges disappear into coarse vertices so the
	// coarse cut approximates the fine cut well.
	HeavyEdgeMatching MatchingKind = iota
	// RandomMatching matches each vertex with a uniformly random unmatched
	// neighbor. Kept as an ablation baseline.
	RandomMatching
)

// String implements fmt.Stringer.
func (m MatchingKind) String() string {
	switch m {
	case HeavyEdgeMatching:
		return "heavy-edge"
	case RandomMatching:
		return "random"
	default:
		return "unknown-matching"
	}
}

// level is the store of one coarsening depth: the coarse graph, the
// fine->coarse vertex map needed to project partitions back, and the
// projected partition of the fine graph. The refiner keeps one level per
// depth and every bisection refills it (see the package doc for the
// lifetime rule), so its slices are grow-only.
type level struct {
	fine   *Graph
	coarse Graph
	// cmap[fineVertex] = coarse vertex
	cmap []int32
	// fixed part per coarse vertex (-1 free), propagated from fine; nil when
	// the fine graph has no fixed vertices. fixedBuf is its backing.
	coarseFixed []int32
	fixedBuf    []int32
	// part is the fine graph's partition, written by project.
	part []int32
}

// coarsen contracts a matching of g into the level store l and reports
// whether it did. fixed[v] >= 0 pins v to a part; vertices pinned to
// different parts are never matched together (their edge cannot be hidden —
// it may be cut). It returns false, leaving l unspecified, when the matching
// would not shrink the graph meaningfully (no contraction, or fewer than
// 10%), signalling multilevelBisect to stop coarsening. rf supplies the
// transient scratch: the matching order, the match array, the coarse degree
// bounds and the contraction marks. The contraction takes two linear passes
// instead of an AddEdge per crossing edge, and yields the very adjacency
// lists the AddEdge loop built (the package doc says why;
// coarsen_reference_test.go pins it).
func coarsen(g *Graph, fixed []int32, kind MatchingKind, rng *xrand.Rand, rf *refiner, l *level) bool {
	n := g.Len()
	rf.match = grow(rf.match, n)
	match := rf.match
	for i := range match {
		match[i] = -1
	}
	rf.perm = grow(rf.perm, n)
	matched := 0
	for _, v := range rng.PermInto(rf.perm) {
		if match[v] != -1 {
			continue
		}
		best := int32(-1)
		var bestW int64 = -1
		for _, nb := range g.adj[v] {
			u := nb.to
			if match[u] != -1 {
				continue
			}
			if fixed != nil && fixed[v] >= 0 && fixed[u] >= 0 && fixed[v] != fixed[u] {
				continue
			}
			switch kind {
			case HeavyEdgeMatching:
				if nb.w > bestW {
					best, bestW = u, nb.w
				}
			case RandomMatching:
				// Reservoir-sample a uniformly random eligible neighbor.
				bestW++
				if rng.Intn(int(bestW)+1) == 0 {
					best = u
				}
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = int32(v)
			matched++
		}
	}
	if matched == 0 || matched < n/10 {
		return false // diminishing returns; stop the multilevel descent
	}
	// Build coarse ids: matched pairs collapse, singletons carry over.
	l.fine = g
	l.cmap = grow(l.cmap, n)
	cmap := l.cmap
	for i := range cmap {
		cmap[i] = -1
	}
	next := int32(0)
	for v := 0; v < n; v++ {
		if cmap[v] != -1 {
			continue
		}
		cmap[v] = next
		if m := match[v]; m != -1 {
			cmap[m] = next
		}
		next++
	}
	// Cap each coarse list at the sum of its members' fine degrees, an upper
	// bound on the crossing halves the first pass appends to it, and cut all
	// lists from the level's slab.
	rf.subDeg = grow(rf.subDeg, int(next))
	cnt := rf.subDeg
	for i := range cnt {
		cnt[i] = 0
	}
	total := 0
	for v := 0; v < n; v++ {
		cnt[cmap[v]] += int32(len(g.adj[v]))
		total += len(g.adj[v])
	}
	coarse := &l.coarse
	coarse.reset(int(next), total)
	l.coarseFixed = nil
	if fixed != nil {
		l.fixedBuf = grow(l.fixedBuf, int(next))
		l.coarseFixed = l.fixedBuf
		for i := range l.coarseFixed {
			l.coarseFixed[i] = -1
		}
	}
	for v := 0; v < n; v++ {
		cv := cmap[v]
		coarse.nw[cv] += g.nw[v]
		if fixed != nil && fixed[v] >= 0 {
			l.coarseFixed[cv] = fixed[v]
		}
	}
	off := 0
	for cv := range coarse.adj {
		coarse.adj[cv] = coarse.slab[off : off : off+int(cnt[cv])]
		off += int(cnt[cv])
	}
	// Pass 1: every crossing half, repeats included, in AddEdge's feed order.
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for _, nb := range g.adj[v] {
			u := int(nb.to)
			if cu := cmap[u]; cu != cv && v < u {
				coarse.adj[cv] = append(coarse.adj[cv], neighbor{to: cu, w: nb.w})
				coarse.adj[cu] = append(coarse.adj[cu], neighbor{to: cv, w: nb.w})
			}
		}
	}
	// Pass 2: fold each repeat into its first occurrence. mark[cu] is cu's
	// position in the list being compacted; it is -1 between lists (and
	// between calls: only a fresh array needs filling).
	if cap(rf.mark) < int(next) {
		rf.mark = make([]int32, next)
		for i := range rf.mark {
			rf.mark[i] = -1
		}
	}
	mark := rf.mark[:next]
	for cv, list := range coarse.adj {
		k := int32(0)
		for _, nb := range list {
			if i := mark[nb.to]; i >= 0 {
				list[i].w += nb.w
				continue
			}
			mark[nb.to] = k
			list[k] = nb
			k++
		}
		list = list[:k]
		for _, nb := range list {
			mark[nb.to] = -1
		}
		coarse.adj[cv] = list
	}
	return true
}

// project lifts a coarse partition back to the level's fine graph, writing
// it into the level's part buffer, which it returns.
func (l *level) project(coarsePart []int32) []int32 {
	l.part = grow(l.part, l.fine.Len())
	for v := range l.part {
		l.part[v] = coarsePart[l.cmap[v]]
	}
	return l.part
}
