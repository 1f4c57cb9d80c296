package partition

import "sync"

// refiner bundles the reusable state of the whole partitioner — the
// recursion's vertex split, each bisection's subgraph and per-depth
// coarsening levels, the initial-bisection tries, the FM gain-bucket and
// per-pass lock/move buffers, and the k-way pass's connectivity arrays. One
// instance is drawn per Partition/MapOnto call and threaded through the
// whole recursion, so repeated passes, levels, and bisections share the same
// grow-only backing arrays: a call allocates a fixed number of objects
// whatever the graph size or coarsening depth. A refiner is single-goroutine
// state; concurrent partitioner calls each get their own.
type refiner struct {
	gb     gainBucket
	locked []bool
	moves  []fmMove
	// recursion scratch: the root vertex set, split in place by each
	// bisection (splitBuf holds side 1 meanwhile), and drb's socket sides.
	vertices []int
	splitBuf []int
	sockSide []int32
	// subgraph extraction: the pooled subgraph and its fixed parts, a dense
	// original->subset index plus an epoch stamp so consecutive extractions
	// skip clearing it.
	sub      Graph
	subFixed []int32
	subIdx   []int32
	subEpoch []int32
	subDeg   []int32
	epoch    int32
	// coarsening: one store per depth (pointers, so a level's fine graph
	// can point at the previous level's coarse graph), the match array,
	// the contraction marks (all -1 between uses) and the random order
	// shared with RandomInit.
	levels []*level
	match  []int32
	mark   []int32
	perm   []int
	// initial-bisection scratch: two try buffers (best so far, current).
	tries        [2][]int32
	initFree     []int
	initFront    []bool
	initGain     []int64
	initFrontier []int
	initCand     []int
	// k-way refinement scratch (refineKWay / refineKWayMapped).
	conn    []int64
	weights []int64
	maxW    []int64
	// onMove, when non-nil, observes every tentative move in commit order
	// (before rollback). Test-only: the fuzz/equivalence harness uses it to
	// compare move sequences against the reference heap refiner.
	onMove func(v int, from int32)
}

// refinerPool recycles refiner scratch across Partition/MapOnto calls: the
// RGP policies partition one window at a time, and without the pool every
// window would regrow the same buffers and level stores from zero. Scratch
// contents never influence results (pinned by TestFMRefineScratchReuseIsInert
// and TestMapOntoScratchReuseIsInert), so pooling cannot perturb
// determinism; concurrent experiment workers simply draw distinct instances.
var refinerPool = sync.Pool{New: func() any { return &refiner{} }}

// grow returns s resized to n, reusing its backing array when capacity
// allows and reallocating (without copying) otherwise. The contents are
// unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// levelAt returns the store of coarsening depth d, creating it on first use.
func (rf *refiner) levelAt(d int) *level {
	for len(rf.levels) <= d {
		rf.levels = append(rf.levels, &level{})
	}
	return rf.levels[d]
}

// allVertices returns the identity vertex set 0..n-1 that the recursion
// splits in place.
func (rf *refiner) allVertices(n int) []int {
	rf.vertices = grow(rf.vertices, n)
	for i := range rf.vertices {
		rf.vertices[i] = i
	}
	return rf.vertices
}

// split stably partitions vertices in place by their bisection side bis[i]
// (side 0 first) and returns the two halves. It runs before the recursion
// descends, which is what lets every bisection reuse the refiner's buffers.
func (rf *refiner) split(vertices []int, bis []int32) (left, right []int) {
	ones := rf.splitBuf[:0]
	k := 0
	for i, v := range vertices {
		if bis[i] == 0 {
			vertices[k] = v
			k++
		} else {
			ones = append(ones, v)
		}
	}
	copy(vertices[k:], ones)
	rf.splitBuf = ones[:0]
	return vertices[:k], vertices[k:]
}

type fmMove struct {
	v    int32
	from int32
}

// fmRefine runs Fiduccia–Mattheyses passes on a 2-way partition, in place.
//
// Each pass tentatively moves every free vertex at most once, always picking
// the highest-gain move (ties to the lowest vertex id) that keeps both sides
// within the balance envelope, then rolls back to the best prefix seen.
// Passes repeat until one fails to improve the cut. maxW0/minW0 bound side
// 0's weight (the balance envelope derived from the target fraction and
// tolerance).
//
// The candidate order comes from the gainBucket structure and is bit-
// identical to the container/heap refiner this replaced (kept as
// fmRefineHeap in refine_reference_test.go): a vertex whose best move fails
// the balance check is dropped from the queue and becomes a candidate again
// only when a neighbor's move changes its gain, exactly as the heap's
// stale-entry discipline behaved.
func fmRefine(g *Graph, part []int32, fixed []int32, minW0, maxW0 int64, maxPasses int, rf *refiner) {
	n := g.Len()
	if n == 0 {
		return
	}
	if cap(rf.locked) < n {
		rf.locked = make([]bool, n)
	}
	locked := rf.locked[:n]
	var w0 int64
	for v := 0; v < n; v++ {
		if part[v] == 0 {
			w0 += g.nw[v]
		}
	}
	// The pass's gain bound: no gain can exceed the largest per-vertex sum
	// of incident edge weights. Fixed for the whole call (weights never
	// change), so the bucket geometry is computed once. The refinement
	// loops below iterate adjacency slices directly: the per-edge closure
	// call of Graph.Neighbors is measurable at this call rate.
	var maxAdj int64
	for v := 0; v < n; v++ {
		var s int64
		for _, nb := range g.adj[v] {
			s += nb.w
		}
		if s > maxAdj {
			maxAdj = s
		}
	}
	gb := &rf.gb
	for pass := 0; pass < maxPasses; pass++ {
		gb.reset(n, maxAdj)
		for v := 0; v < n; v++ {
			lk := fixed != nil && fixed[v] >= 0
			locked[v] = lk
			if !lk {
				var gain int64
				pv := part[v]
				for _, nb := range g.adj[v] {
					if part[nb.to] == pv {
						gain -= nb.w
					} else {
						gain += nb.w
					}
				}
				gb.insert(int32(v), gain)
			}
		}
		var (
			moves    = rf.moves[:0]
			cumGain  int64
			bestGain int64
			bestIdx  = -1 // prefix length-1 of best state
		)
		for {
			v32, ok := gb.extractMax()
			if !ok {
				break
			}
			v := int(v32)
			// Balance check for moving v to the other side.
			nw0 := w0
			if part[v] == 0 {
				nw0 -= g.nw[v]
			} else {
				nw0 += g.nw[v]
			}
			if nw0 < minW0 || nw0 > maxW0 {
				continue // cannot move without breaking balance; skip
			}
			// Commit tentative move.
			from := part[v]
			part[v] = 1 - from
			w0 = nw0
			locked[v] = true
			cumGain += gb.gain[v]
			moves = append(moves, fmMove{v: v32, from: from})
			if rf.onMove != nil {
				rf.onMove(v, from)
			}
			if cumGain > bestGain {
				bestGain = cumGain
				bestIdx = len(moves) - 1
			}
			// Update neighbor gains: u's gain changes by ±2w depending on
			// sides. update relinks u in O(1), or re-inserts it if a failed
			// balance check had dropped it.
			pv := part[v]
			for _, nb := range g.adj[v] {
				u := nb.to
				if locked[u] {
					continue
				}
				if part[u] == pv {
					gb.update(u, gb.gain[u]-2*nb.w)
				} else {
					gb.update(u, gb.gain[u]+2*nb.w)
				}
			}
		}
		rf.moves = moves[:0] // retain grown capacity for later passes/calls
		// Roll back past the best prefix.
		for i := len(moves) - 1; i > bestIdx; i-- {
			m := moves[i]
			part[m.v] = m.from
			if m.from == 0 {
				w0 += g.nw[m.v]
			} else {
				w0 -= g.nw[m.v]
			}
		}
		if bestGain <= 0 {
			return // no improvement this pass
		}
	}
}
