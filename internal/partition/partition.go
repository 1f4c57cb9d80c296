package partition

import (
	"fmt"
	"math"

	"numadag/internal/xrand"
)

// Options tunes the multilevel partitioner. The zero value is not usable;
// start from DefaultOptions.
type Options struct {
	// Parts is the number of parts (sockets), k >= 1.
	Parts int
	// TargetWeights optionally gives each part's share of the total vertex
	// weight (must sum to ~1). Nil means uniform.
	TargetWeights []float64
	// Imbalance is the tolerated relative overweight per part (e.g. 0.05).
	Imbalance float64
	// Seed drives every random choice.
	Seed uint64
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices.
	CoarsenTo int
	// Tries is the number of initial partitions attempted on the coarsest
	// graph (best cut wins).
	Tries int
	// FMPasses bounds refinement passes per level.
	FMPasses int
	// Matching selects the coarsening heuristic.
	Matching MatchingKind
	// Initial selects the coarsest-graph bisection heuristic.
	Initial InitialKind
	// NoRefine disables FM refinement (ablation).
	NoRefine bool
	// KWayRefine adds a greedy direct k-way refinement post-pass after
	// recursive bisection, recovering moves between parts that were split
	// apart early in the recursion. On by default in DefaultOptions.
	KWayRefine bool
	// Fixed optionally pins vertices: Fixed[v] in [0, Parts) forces v's
	// part; -1 leaves it free. Length must be 0 or g.Len().
	Fixed []int32
}

// DefaultOptions returns the settings used by the RGP policies: k parts,
// 5% imbalance, heavy-edge matching, greedy growing, 10 FM passes.
func DefaultOptions(parts int) Options {
	return Options{
		Parts:      parts,
		Imbalance:  0.05,
		Seed:       1,
		CoarsenTo:  64,
		Tries:      4,
		FMPasses:   10,
		Matching:   HeavyEdgeMatching,
		Initial:    GreedyGrowing,
		KWayRefine: true,
	}
}

func (o *Options) validate(n int) error {
	switch {
	case o.Parts < 1:
		return fmt.Errorf("partition: %d parts", o.Parts)
	case !(o.Imbalance >= 0) || math.IsInf(o.Imbalance, 1):
		return fmt.Errorf("partition: imbalance %v is not a finite non-negative number", o.Imbalance)
	case o.CoarsenTo < 2:
		return fmt.Errorf("partition: CoarsenTo %d < 2", o.CoarsenTo)
	case o.Tries < 1:
		return fmt.Errorf("partition: Tries %d < 1", o.Tries)
	case o.FMPasses < 0:
		return fmt.Errorf("partition: negative FMPasses")
	}
	if o.TargetWeights != nil {
		if len(o.TargetWeights) != o.Parts {
			return fmt.Errorf("partition: %d target weights for %d parts", len(o.TargetWeights), o.Parts)
		}
		sum := 0.0
		for _, t := range o.TargetWeights {
			if !(t >= 0) || math.IsInf(t, 1) {
				return fmt.Errorf("partition: target weight %v is not a finite non-negative number", t)
			}
			sum += t
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("partition: target weights sum to %v", sum)
		}
	}
	if o.Fixed != nil && len(o.Fixed) != n {
		return fmt.Errorf("partition: Fixed has %d entries for %d vertices", len(o.Fixed), n)
	}
	if o.Fixed != nil {
		for v, p := range o.Fixed {
			if p >= int32(o.Parts) {
				return fmt.Errorf("partition: vertex %d fixed to part %d of %d", v, p, o.Parts)
			}
		}
	}
	return nil
}

// Stats reports the quality of a produced partition.
type Stats struct {
	EdgeCut   int64
	Imbalance float64
	Levels    int // coarsening levels used on the top-level bisection
}

// Partition computes a k-way partition of g. The returned slice maps each
// vertex to its part in [0, Parts).
func Partition(g *Graph, opt Options) ([]int32, Stats, error) {
	if err := opt.validate(g.Len()); err != nil {
		return nil, Stats{}, err
	}
	rng := xrand.New(opt.Seed)
	part := make([]int32, g.Len())
	targets := opt.TargetWeights
	if targets == nil {
		targets = make([]float64, opt.Parts)
		for i := range targets {
			targets[i] = 1.0 / float64(opt.Parts)
		}
	}
	rf := refinerPool.Get().(*refiner)
	defer refinerPool.Put(rf)
	levels := recursiveBisect(g, rf.allVertices(g.Len()), opt.Fixed, part, 0, opt.Parts, targets, &opt, rng, rf)
	if opt.KWayRefine && !opt.NoRefine {
		refineKWay(g, part, opt.Fixed, opt.Parts, opt.TargetWeights, opt.Imbalance, opt.FMPasses, rf)
	}
	st := Stats{
		EdgeCut:   EdgeCut(g, part),
		Imbalance: Imbalance(g, part, opt.Parts, opt.TargetWeights),
		Levels:    levels,
	}
	return part, st, nil
}

// recursiveBisect assigns parts [lo, hi) to the given vertex subset of g,
// writing into part. targets are absolute fractions of the *whole* graph.
// rf carries the refinement scratch shared by the entire recursion.
// Returns the number of multilevel levels used at the top split (for Stats).
func recursiveBisect(g *Graph, vertices []int, fixed []int32, part []int32, lo, hi int, targets []float64, opt *Options, rng *xrand.Rand, rf *refiner) int {
	if hi-lo == 1 {
		for _, v := range vertices {
			part[v] = int32(lo)
		}
		return 0
	}
	mid := (lo + hi) / 2
	// Side-0 target = sum of targets[lo:mid] relative to this subset's share.
	var t0, tAll float64
	for p := lo; p < hi; p++ {
		tAll += targets[p]
	}
	for p := lo; p < mid; p++ {
		t0 += targets[p]
	}
	frac := 0.5
	if tAll > 0 {
		frac = t0 / tAll
	}
	// Build the subgraph on the subset.
	sub := subgraph(g, vertices, rf)
	var subFixed []int32
	if fixed != nil {
		rf.subFixed = grow(rf.subFixed, sub.Len())
		subFixed = rf.subFixed
		for i, v := range vertices {
			f := fixed[v]
			switch {
			case f < 0:
				subFixed[i] = -1
			case int(f) < mid:
				subFixed[i] = 0
			default:
				subFixed[i] = 1
			}
		}
	}
	bis, levels := multilevelBisect(sub, subFixed, frac, opt, rng, rf)
	left, right := rf.split(vertices, bis)
	recursiveBisect(g, left, fixed, part, lo, mid, targets, opt, rng.Fork(), rf)
	recursiveBisect(g, right, fixed, part, mid, hi, targets, opt, rng.Fork(), rf)
	return levels
}

// subgraph extracts the induced subgraph on vertices (in order) into the
// refiner's pooled subgraph, which it returns; the next extraction
// overwrites it. The original->subset index lives in the refiner's dense
// scratch (epoch-stamped so consecutive extractions skip clearing it)
// instead of a per-call map, and the adjacency lists are cut from one slab
// sized by a counting pass.
func subgraph(g *Graph, vertices []int, rf *refiner) *Graph {
	n := g.Len()
	if cap(rf.subIdx) < n {
		rf.subIdx = make([]int32, n)
		rf.subEpoch = make([]int32, n)
	}
	idx, ep := rf.subIdx[:n], rf.subEpoch[:n]
	rf.epoch++
	if rf.epoch == 0 { // stamp wrapped: old stamps could alias, clear them
		for i := range rf.subEpoch {
			rf.subEpoch[i] = 0
		}
		rf.epoch = 1
	}
	e := rf.epoch
	for i, v := range vertices {
		idx[v] = int32(i)
		ep[v] = e
	}
	// Counting pass: exact subset degrees.
	rf.subDeg = grow(rf.subDeg, len(vertices))
	deg := rf.subDeg
	total := 0
	for i, v := range vertices {
		d := 0
		for _, nb := range g.adj[v] {
			if ep[nb.to] == e {
				d++
			}
		}
		deg[i] = int32(d)
		total += d
	}
	// Slab the lists so the fill pass never reallocates.
	sub := &rf.sub
	sub.reset(len(vertices), total)
	off := 0
	for i := range vertices {
		sub.adj[i] = sub.slab[off : off : off+int(deg[i])]
		off += int(deg[i])
	}
	// Fill pass: the input adjacency is deduplicated and each unordered
	// pair is visited once (v < u), so both halves append without
	// AddEdge's linear dedup scan. The append order matches what AddEdge
	// produced before, keeping every downstream tie-break identical.
	for i, v := range vertices {
		sub.nw[i] = g.nw[v]
		for _, nb := range g.adj[v] {
			if u := int(nb.to); v < u && ep[u] == e {
				sub.adj[i] = append(sub.adj[i], neighbor{to: idx[u], w: nb.w})
				sub.adj[idx[u]] = append(sub.adj[idx[u]], neighbor{to: int32(i), w: nb.w})
			}
		}
	}
	return sub
}

// multilevelBisect runs the full coarsen/initial/refine pipeline for a
// 2-way split with side-0 fraction frac. Returns the partition and the
// number of coarsening levels used. The hierarchy lives in the refiner's
// per-depth level stores, and the partition returned is one of the
// refiner's buffers: it stays valid only until the next bisection.
func multilevelBisect(g *Graph, fixed []int32, frac float64, opt *Options, rng *xrand.Rand, rf *refiner) ([]int32, int) {
	if g.Len() == 0 {
		return nil, 0
	}
	// Coarsening descent.
	depth := 0
	cur, curFixed := g, fixed
	for cur.Len() > opt.CoarsenTo {
		l := rf.levelAt(depth)
		if !coarsen(cur, curFixed, opt.Matching, rng, rf, l) {
			break
		}
		depth++
		cur, curFixed = &l.coarse, l.coarseFixed
	}
	// Initial partitioning: several tries, keep the best balanced cut. The
	// two try buffers trade places whenever a try becomes the best.
	minW0, maxW0 := bisectEnvelope(cur.TotalVertexWeight(), frac, opt.Imbalance)
	rf.tries[0] = grow(rf.tries[0], cur.Len())
	rf.tries[1] = grow(rf.tries[1], cur.Len())
	best, p := rf.tries[0], rf.tries[1]
	var bestCut int64 = math.MaxInt64
	var bestImb float64 = math.Inf(1)
	for try := 0; try < opt.Tries; try++ {
		initialBisect(cur, curFixed, frac, opt.Initial, rng, rf, p)
		if !opt.NoRefine {
			fmRefine(cur, p, curFixed, minW0, maxW0, opt.FMPasses, rf)
		}
		cut := EdgeCut(cur, p)
		imb := bisectImbalance(cur, p, frac)
		// Prefer feasible (within tolerance) partitions, then lower cut.
		better := false
		feasible := imb <= opt.Imbalance+1e-9
		bestFeasible := bestImb <= opt.Imbalance+1e-9
		switch {
		case try == 0:
			better = true
		case feasible && !bestFeasible:
			better = true
		case feasible == bestFeasible && cut < bestCut:
			better = true
		case feasible == bestFeasible && cut == bestCut && imb < bestImb:
			better = true
		}
		if better {
			best, p = p, best
			bestCut, bestImb = cut, imb
		}
	}
	// Uncoarsening with refinement at each level.
	p = best
	for i := depth - 1; i >= 0; i-- {
		l := rf.levels[i]
		p = l.project(p)
		if !opt.NoRefine {
			lo, hi := bisectEnvelope(l.fine.TotalVertexWeight(), frac, opt.Imbalance)
			var ffixed []int32
			if i == 0 {
				ffixed = fixed
			} else {
				ffixed = rf.levels[i-1].coarseFixed
			}
			fmRefine(l.fine, p, ffixed, lo, hi, opt.FMPasses, rf)
		}
	}
	return p, depth
}

// bisectEnvelope derives side-0 weight bounds [minW0, maxW0] from the
// target fraction and the per-part relative imbalance tolerance: each side
// may exceed its own target by at most the tolerance. A slack of one unit is
// always granted so integral weights cannot make the envelope empty.
func bisectEnvelope(total int64, frac, imbalance float64) (minW0, maxW0 int64) {
	t0 := float64(total) * frac
	t1 := float64(total) * (1 - frac)
	maxW0 = int64(t0 * (1 + imbalance))
	minW0 = total - int64(t1*(1+imbalance))
	if maxW0 < int64(t0)+1 {
		maxW0 = int64(t0) + 1
	}
	if minW0 > int64(t0)-1 {
		minW0 = int64(t0) - 1
	}
	if minW0 < 0 {
		minW0 = 0
	}
	if maxW0 > total {
		maxW0 = total
	}
	return minW0, maxW0
}

// bisectImbalance measures side-0 deviation from the target fraction.
func bisectImbalance(g *Graph, part []int32, frac float64) float64 {
	total := g.TotalVertexWeight()
	if total == 0 {
		return 0
	}
	var w0 int64
	for v, p := range part {
		if p == 0 {
			w0 += g.nw[v]
		}
	}
	r0 := float64(w0)/float64(total) - frac
	r1 := (float64(total-w0) / float64(total)) - (1 - frac)
	return math.Max(math.Abs(r0), math.Abs(r1))
}
