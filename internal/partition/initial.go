package partition

import (
	"numadag/internal/xrand"
)

// InitialKind selects the initial bisection heuristic run on the coarsest
// graph.
type InitialKind int

const (
	// GreedyGrowing grows part 0 from a random seed vertex by repeatedly
	// absorbing the frontier vertex with the highest connectivity to the
	// grown region, until the target weight is reached (greedy graph
	// growing, as in METIS/SCOTCH initial phases).
	GreedyGrowing InitialKind = iota
	// RandomInit assigns vertices to the two sides randomly subject to the
	// weight targets. Ablation baseline.
	RandomInit
)

// String implements fmt.Stringer.
func (k InitialKind) String() string {
	switch k {
	case GreedyGrowing:
		return "greedy-growing"
	case RandomInit:
		return "random"
	default:
		return "unknown-initial"
	}
}

// initialBisect writes a 2-way partition of g into part (len g.Len()) with
// side-0 target weight fraction t0 (0 < t0 < 1). fixed[v] in {-1,0,1} pins
// vertices. The result always respects fixed assignments; weight targets are
// best-effort (the refinement pass enforces balance within tolerance
// afterwards). The rf scratch supplies the working arrays.
func initialBisect(g *Graph, fixed []int32, t0 float64, kind InitialKind, rng *xrand.Rand, rf *refiner, part []int32) {
	n := g.Len()
	for v := range part {
		part[v] = 1
	}
	total := g.TotalVertexWeight()
	target0 := int64(float64(total) * t0)
	var w0 int64
	// Pinned vertices first.
	if cap(rf.initFree) < n {
		rf.initFree = make([]int, 0, n)
	}
	free := rf.initFree[:0]
	for v := 0; v < n; v++ {
		if fixed != nil && fixed[v] >= 0 {
			part[v] = fixed[v]
			if fixed[v] == 0 {
				w0 += g.nw[v]
			}
		} else {
			free = append(free, v)
		}
	}
	if kind == RandomInit {
		rf.perm = grow(rf.perm, len(free))
		for _, v := range rng.PermInto(rf.perm) {
			u := free[v]
			if w0 < target0 {
				part[u] = 0
				w0 += g.nw[u]
			}
		}
		return
	}
	// Greedy graph growing of side 0.
	rf.initFront = grow(rf.initFront, n)
	rf.initGain = grow(rf.initGain, n)
	inFront, gain := rf.initFront, rf.initGain
	for v := 0; v < n; v++ {
		inFront[v] = false
		gain[v] = 0 // connectivity of frontier vertices to side 0
	}
	frontier := rf.initFrontier[:0]
	// Seed from pinned side-0 vertices if any, else a random free vertex.
	if fixed != nil {
		for v := 0; v < n; v++ {
			if fixed[v] == 0 {
				frontier = growFrontier(g, v, part, fixed, gain, inFront, frontier)
			}
		}
	}
	for w0 < target0 {
		var next int
		if len(frontier) == 0 {
			// Disconnected remainder (or no seed yet): pick the heaviest-
			// gain-less free vertex at random to restart growth.
			candidates := rf.initCand[:0]
			for _, v := range free {
				if part[v] == 1 {
					candidates = append(candidates, v)
				}
			}
			rf.initCand = candidates[:0]
			if len(candidates) == 0 {
				break
			}
			next = candidates[rng.Intn(len(candidates))]
		} else {
			// Extract max-gain frontier vertex (linear scan: coarsest graphs
			// are small by construction).
			best, bestIdx := -1, -1
			var bestGain int64 = -1
			for i, v := range frontier {
				if part[v] == 0 {
					continue // already absorbed
				}
				if gain[v] > bestGain {
					best, bestIdx, bestGain = v, i, gain[v]
				}
			}
			if best == -1 {
				frontier = frontier[:0]
				continue
			}
			frontier[bestIdx] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			inFront[best] = false
			next = best
		}
		part[next] = 0
		w0 += g.nw[next]
		frontier = growFrontier(g, next, part, fixed, gain, inFront, frontier)
	}
	rf.initFrontier = frontier[:0] // retain grown capacity
}

// growFrontier credits v's edges to its neighbors' connectivity to side 0
// and appends the free side-1 neighbors not yet on the frontier.
func growFrontier(g *Graph, v int, part, fixed []int32, gain []int64, inFront []bool, frontier []int) []int {
	for _, nb := range g.adj[v] {
		u := nb.to
		gain[u] += nb.w
		if !inFront[u] && part[u] == 1 && (fixed == nil || fixed[u] < 0) {
			inFront[u] = true
			frontier = append(frontier, int(u))
		}
	}
	return frontier
}
