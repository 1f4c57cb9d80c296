package partition

// The AddEdge contraction this package shipped before the two-pass one, kept
// as a test-only reference implementation. It allocates every level fresh,
// draws the matching order with rng.Perm and inserts each crossing edge with
// AddEdge, whose in-order dedup scan defines the coarse adjacency order the
// refiner's tie-breaks observe. TestCoarsenMatchesReference and FuzzCoarsen
// replay it against coarsen through whole coarsening descents and demand
// identical maps, weights, pins and adjacency lists, entry by entry.

import (
	"fmt"
	"testing"

	"numadag/internal/xrand"
)

// refLevel is one reference coarsening step.
type refLevel struct {
	coarse      *Graph
	cmap        []int32
	coarseFixed []int32
}

// coarsenReference is the reference implementation; nil means coarsening
// stopped.
func coarsenReference(g *Graph, fixed []int32, kind MatchingKind, rng *xrand.Rand) *refLevel {
	n := g.Len()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.PermInto(make([]int, n))
	matched := 0
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best := -1
		var bestW int64 = -1
		g.Neighbors(v, func(u int, w int64) {
			if match[u] != -1 {
				return
			}
			if fixed != nil && fixed[v] >= 0 && fixed[u] >= 0 && fixed[v] != fixed[u] {
				return
			}
			switch kind {
			case HeavyEdgeMatching:
				if w > bestW {
					best, bestW = u, w
				}
			case RandomMatching:
				bestW++
				if rng.Intn(int(bestW)+1) == 0 {
					best = u
				}
			}
		})
		if best >= 0 {
			match[v] = int32(best)
			match[best] = int32(v)
			matched++
		}
	}
	if matched < n/10 {
		return nil
	}
	cmap := make([]int32, n)
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
	coarse := NewGraph(int(next))
	var coarseFixed []int32
	if fixed != nil {
		coarseFixed = make([]int32, next)
		for i := range coarseFixed {
			coarseFixed[i] = -1
		}
	}
	for v := 0; v < n; v++ {
		cv := cmap[v]
		coarse.nw[cv] += g.nw[v]
		if fixed != nil && fixed[v] >= 0 {
			coarseFixed[cv] = fixed[v]
		}
	}
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for _, nb := range g.adj[v] {
			u := int(nb.to)
			cu := cmap[u]
			if cu != cv && v < u {
				coarse.AddEdge(int(cv), int(cu), nb.w)
			}
		}
	}
	return &refLevel{coarse: coarse, cmap: cmap, coarseFixed: coarseFixed}
}

// checkCoarsenDescent coarsens c's graph level by level with coarsen (on rf's
// per-depth stores, as multilevelBisect does) and with coarsenReference, both
// from the same seed, and fails on the first difference. The descent stops
// where the reference stops or would contract nothing, or below four
// vertices.
func checkCoarsenDescent(t *testing.T, c refineCase, kind MatchingKind, seed uint64, rf *refiner) {
	t.Helper()
	rng, refRNG := xrand.New(seed), xrand.New(seed)
	cur, curFixed := c.g, c.fixed
	ref, refFixed := c.g, c.fixed
	for depth := 0; cur.Len() > 4; depth++ {
		want := coarsenReference(ref, refFixed, kind, refRNG)
		if want != nil && want.coarse.Len() == ref.Len() {
			// No contraction: the reference returns the graph unchanged,
			// which a descent would repeat forever; coarsen stops instead.
			want = nil
		}
		l := rf.levelAt(depth)
		if ok := coarsen(cur, curFixed, kind, rng, rf, l); ok != (want != nil) {
			t.Fatalf("depth %d: coarsen reported %v, reference %v", depth, ok, want != nil)
		}
		if want == nil {
			return
		}
		if len(l.cmap) != len(want.cmap) {
			t.Fatalf("depth %d: cmap has %d entries, reference %d", depth, len(l.cmap), len(want.cmap))
		}
		for v := range want.cmap {
			if l.cmap[v] != want.cmap[v] {
				t.Fatalf("depth %d: cmap[%d] = %d, reference %d", depth, v, l.cmap[v], want.cmap[v])
			}
		}
		got := &l.coarse
		if got.Len() != want.coarse.Len() {
			t.Fatalf("depth %d: %d coarse vertices, reference %d", depth, got.Len(), want.coarse.Len())
		}
		if (l.coarseFixed == nil) != (want.coarseFixed == nil) {
			t.Fatalf("depth %d: coarseFixed nil %v, reference nil %v", depth, l.coarseFixed == nil, want.coarseFixed == nil)
		}
		for cv := 0; cv < got.Len(); cv++ {
			if got.nw[cv] != want.coarse.nw[cv] {
				t.Fatalf("depth %d: weight of %d = %d, reference %d", depth, cv, got.nw[cv], want.coarse.nw[cv])
			}
			if want.coarseFixed != nil && l.coarseFixed[cv] != want.coarseFixed[cv] {
				t.Fatalf("depth %d: coarseFixed[%d] = %d, reference %d", depth, cv, l.coarseFixed[cv], want.coarseFixed[cv])
			}
			ga, wa := got.adj[cv], want.coarse.adj[cv]
			if len(ga) != len(wa) {
				t.Fatalf("depth %d: vertex %d has %d neighbors, reference %d:\ngot  %v\nwant %v", depth, cv, len(ga), len(wa), ga, wa)
			}
			for i := range wa {
				if ga[i] != wa[i] {
					t.Fatalf("depth %d: vertex %d neighbor %d = %+v, reference %+v", depth, cv, i, ga[i], wa[i])
				}
			}
		}
		cur, curFixed = got, l.coarseFixed
		ref, refFixed = want.coarse, want.coarseFixed
	}
}

// TestCoarsenMatchesReference replays coarsening descents over the
// equivalence suite's graph shapes — unit, byte and mixed weights, hub
// skew, fixed sets from none to dense — with both matchings and several
// seeds. One refiner serves every descent, so the per-depth stores are
// refilled from larger and smaller graphs throughout.
func TestCoarsenMatchesReference(t *testing.T) {
	rf := &refiner{}
	for i := uint64(0); i < 24; i++ {
		c := buildRefineCase(2000+i, 17*i+40, i, i, 0, 0, 7*i, 0)
		for _, kind := range []MatchingKind{HeavyEdgeMatching, RandomMatching} {
			for _, seed := range []uint64{1, 2, 3 + i} {
				t.Run(fmt.Sprintf("case%d/%v/seed%d", i, kind, seed), func(t *testing.T) {
					checkCoarsenDescent(t, c, kind, seed, rf)
				})
			}
		}
	}
}
