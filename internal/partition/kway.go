package partition

// Direct k-way refinement post-passes. Recursive bisection fixes part pairs
// level by level and cannot exploit moves between parts that were split
// apart early in the recursion; a greedy k-way scan afterwards recovers
// most of that loss (the classic KL-style post-pass SCOTCH and METIS both
// apply). Like fmRefine, these passes draw their working arrays from the
// per-call refiner scratch.

// refineKWay runs greedy k-way refinement on a plain edge-cut partition:
// each pass scans vertices in index order and moves a boundary vertex to
// the part with the largest positive cut gain, provided the move keeps the
// destination inside its balance envelope. It mutates part in place and
// returns the total gain.
func refineKWay(g *Graph, part []int32, fixed []int32, k int, targets []float64, imbalance float64, passes int, rf *refiner) int64 {
	if k <= 1 || g.Len() == 0 {
		return 0
	}
	maxW := partCaps(g, k, targets, imbalance, rf)
	weights := kwayWeights(g, part, k, rf)
	conn := kwayConn(k, rf)
	var totalGain int64
	for pass := 0; pass < passes; pass++ {
		passGain := kwayPass(g, part, fixed, k, weights, maxW, conn, nil)
		totalGain += passGain
		if passGain == 0 {
			break
		}
	}
	return totalGain
}

// refineKWayMapped is refineKWay with the static-mapping objective: a
// vertex's affinity to socket s is the negated distance-weighted cost of
// its edges if it lived on s, so moves reduce CommCost rather than plain
// edge cut.
func refineKWayMapped(g *Graph, part []int32, fixed []int32, arch *Arch, imbalance float64, passes int, rf *refiner) int64 {
	k := arch.Sockets()
	if k <= 1 || g.Len() == 0 {
		return 0
	}
	maxW := partCaps(g, k, archTargets(arch), imbalance, rf)
	weights := kwayWeights(g, part, k, rf)
	conn := kwayConn(k, rf)
	var totalGain int64
	for pass := 0; pass < passes; pass++ {
		passGain := kwayPass(g, part, fixed, k, weights, maxW, conn, arch.Dist)
		totalGain += passGain
		if passGain == 0 {
			break
		}
	}
	return totalGain
}

// kwayWeights fills the scratch per-part weight array (like PartWeights,
// without allocating).
func kwayWeights(g *Graph, part []int32, k int, rf *refiner) []int64 {
	if cap(rf.weights) < k {
		rf.weights = make([]int64, k)
	}
	w := rf.weights[:k]
	for p := range w {
		w[p] = 0
	}
	for v, p := range part {
		w[p] += g.nw[v]
	}
	return w
}

// kwayConn returns the per-part connectivity scratch. Contents are
// unspecified: kwayPass zeroes it per vertex before use.
func kwayConn(k int, rf *refiner) []int64 {
	if cap(rf.conn) < k {
		rf.conn = make([]int64, k)
	}
	return rf.conn[:k]
}

// partCaps derives each part's maximum weight from targets and tolerance.
func partCaps(g *Graph, k int, targets []float64, imbalance float64, rf *refiner) []int64 {
	total := g.TotalVertexWeight()
	if cap(rf.maxW) < k {
		rf.maxW = make([]int64, k)
	}
	maxW := rf.maxW[:k]
	for p := 0; p < k; p++ {
		t := 1.0 / float64(k)
		if targets != nil {
			t = targets[p]
		}
		maxW[p] = int64(float64(total) * t * (1 + imbalance))
		if maxW[p] < 1 {
			maxW[p] = 1
		}
	}
	return maxW
}

// kwayPass performs one greedy scan. With dist == nil, conn[p] accumulates
// the vertex's edge weight into part p and the gain of a move home -> p is
// conn[p] - conn[home] (edge-cut objective). With dist != nil, conn[p]
// holds the negated distance-weighted cost of placing the vertex on p, and
// the same comparison minimizes CommCost.
func kwayPass(g *Graph, part []int32, fixed []int32, k int, weights, maxW []int64, conn []int64, dist [][]int) int64 {
	var passGain int64
	for v := 0; v < g.Len(); v++ {
		if fixed != nil && fixed[v] >= 0 {
			continue
		}
		home := part[v]
		for p := range conn {
			conn[p] = 0
		}
		boundary := false
		if dist == nil {
			for _, nb := range g.adj[v] {
				pu := part[nb.to]
				conn[pu] += nb.w
				if pu != home {
					boundary = true
				}
			}
		} else {
			for _, nb := range g.adj[v] {
				pu := part[nb.to]
				for p := 0; p < k; p++ {
					conn[p] -= nb.w * int64(dist[p][pu])
				}
				if pu != home {
					boundary = true
				}
			}
		}
		if !boundary {
			continue
		}
		best, bestGain := home, int64(0)
		for p := int32(0); p < int32(k); p++ {
			if p == home {
				continue
			}
			if weights[p]+g.nw[v] > maxW[p] {
				continue
			}
			if gain := conn[p] - conn[home]; gain > bestGain {
				best, bestGain = p, gain
			}
		}
		if best != home {
			part[v] = best
			weights[home] -= g.nw[v]
			weights[best] += g.nw[v]
			passGain += bestGain
		}
	}
	return passGain
}
