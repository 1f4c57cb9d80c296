package partition

// White-box tests for the multilevel pipeline's stages: coarsening,
// initial bisection and FM refinement.

import (
	"testing"

	"numadag/internal/xrand"
)

// coarsenFresh runs coarsen on a scratch refiner into a fresh level store,
// returning nil when coarsening stops.
func coarsenFresh(g *Graph, fixed []int32, kind MatchingKind, rng *xrand.Rand) *level {
	l := &level{}
	if !coarsen(g, fixed, kind, rng, &refiner{}, l) {
		return nil
	}
	return l
}

// initialBisectFresh runs initialBisect on a scratch refiner into a fresh
// partition.
func initialBisectFresh(g *Graph, fixed []int32, t0 float64, kind InitialKind, rng *xrand.Rand) []int32 {
	part := make([]int32, g.Len())
	initialBisect(g, fixed, t0, kind, rng, &refiner{}, part)
	return part
}

func TestCoarsenPreservesTotals(t *testing.T) {
	g := grid2D(10, 3)
	rng := xrand.New(1)
	l := coarsenFresh(g, nil, HeavyEdgeMatching, rng)
	if l == nil {
		t.Fatal("coarsening refused a 100-vertex grid")
	}
	if l.coarse.Len() >= g.Len() {
		t.Fatalf("coarse graph has %d vertices, fine has %d", l.coarse.Len(), g.Len())
	}
	if got, want := l.coarse.TotalVertexWeight(), g.TotalVertexWeight(); got != want {
		t.Fatalf("vertex weight changed under coarsening: %d vs %d", got, want)
	}
	// Edge weight can only shrink (matched edges are hidden), never grow.
	if l.coarse.TotalEdgeWeight() > g.TotalEdgeWeight() {
		t.Fatal("edge weight grew under coarsening")
	}
	// cmap must be a total map into [0, coarse.Len()).
	for v, cv := range l.cmap {
		if cv < 0 || int(cv) >= l.coarse.Len() {
			t.Fatalf("cmap[%d] = %d out of range", v, cv)
		}
	}
}

func TestCoarsenHeavyEdgePrefersHeavy(t *testing.T) {
	// A path a -1- b -100- c: heavy-edge matching must contract (b,c).
	g := NewGraph(3)
	for v := 0; v < 3; v++ {
		g.SetVertexWeight(v, 1)
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 100)
	// HEM visits vertices in random order; only when vertex 0 goes first
	// does the light edge win, so (b,c) merges in ~2/3 of the orders.
	merged := 0
	const seeds = 96
	for seed := uint64(1); seed <= seeds; seed++ {
		l := coarsenFresh(g, nil, HeavyEdgeMatching, xrand.New(seed))
		if l == nil {
			continue
		}
		if l.cmap[1] == l.cmap[2] {
			merged++
		}
	}
	if merged < seeds/2 {
		t.Fatalf("heavy edge contracted only %d/%d times, want > 1/2", merged, seeds)
	}
}

func TestCoarsenRespectsFixedConflict(t *testing.T) {
	// Two vertices fixed to different parts joined by a huge edge must not
	// be matched together.
	g := NewGraph(2)
	g.SetVertexWeight(0, 1)
	g.SetVertexWeight(1, 1)
	g.AddEdge(0, 1, 1000)
	fixed := []int32{0, 1}
	for seed := uint64(1); seed <= 8; seed++ {
		l := coarsenFresh(g, fixed, HeavyEdgeMatching, xrand.New(seed))
		if l == nil {
			continue // no contraction possible: acceptable
		}
		if l.cmap[0] == l.cmap[1] {
			t.Fatal("conflicting fixed vertices merged")
		}
	}
}

func TestCoarsenStopsOnSparseMatching(t *testing.T) {
	// A star graph's center can match only one leaf: after one level the
	// matching stays tiny and coarsening must eventually give up (return
	// nil) instead of looping.
	g := NewGraph(1)
	g.SetVertexWeight(0, 1)
	// Independent vertices (no edges at all): nothing can match. Below ten
	// vertices the 10% rule alone admits a level with no contraction, which
	// would repeat forever under a CoarsenTo that small.
	var iso *Graph
	for _, n := range []int{20, 5} {
		iso = NewGraph(n)
		for v := 0; v < n; v++ {
			iso.SetVertexWeight(v, 1)
		}
		if l := coarsenFresh(iso, nil, HeavyEdgeMatching, xrand.New(1)); l != nil {
			t.Fatalf("edgeless %d-vertex graph coarsened", n)
		}
	}
	opt := DefaultOptions(2)
	opt.CoarsenTo = 2
	if _, _, err := Partition(iso, opt); err != nil { // must return, not descend forever
		t.Fatal(err)
	}
}

func TestProjectRoundTrips(t *testing.T) {
	g := grid2D(8, 1)
	l := coarsenFresh(g, nil, HeavyEdgeMatching, xrand.New(3))
	if l == nil {
		t.Fatal("no coarsening")
	}
	coarsePart := make([]int32, l.coarse.Len())
	for i := range coarsePart {
		coarsePart[i] = int32(i % 2)
	}
	fine := l.project(coarsePart)
	if len(fine) != g.Len() {
		t.Fatalf("projected partition has %d entries", len(fine))
	}
	for v, p := range fine {
		if p != coarsePart[l.cmap[v]] {
			t.Fatalf("projection mismatch at %d", v)
		}
	}
}

func TestInitialBisectRespectsFraction(t *testing.T) {
	g := grid2D(10, 1)
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		part := initialBisectFresh(g, nil, frac, GreedyGrowing, xrand.New(7))
		var w0 int64
		for v, p := range part {
			if p == 0 {
				w0 += g.VertexWeight(v)
			}
		}
		got := float64(w0) / float64(g.TotalVertexWeight())
		if got < frac-0.08 || got > frac+0.08 {
			t.Errorf("frac %v: side 0 got %.3f", frac, got)
		}
	}
}

func TestInitialBisectGrowsConnected(t *testing.T) {
	// On a path graph, greedy growing from any seed produces one contiguous
	// run of side-0 vertices.
	n := 40
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		g.SetVertexWeight(v, 1)
		if v+1 < n {
			g.AddEdge(v, v+1, 10)
		}
	}
	part := initialBisectFresh(g, nil, 0.5, GreedyGrowing, xrand.New(5))
	transitions := 0
	for v := 1; v < n; v++ {
		if part[v] != part[v-1] {
			transitions++
		}
	}
	if transitions > 2 {
		t.Fatalf("greedy growing produced %d runs on a path", transitions+1)
	}
}

func TestInitialBisectHonorsFixed(t *testing.T) {
	g := grid2D(6, 1)
	fixed := make([]int32, g.Len())
	for i := range fixed {
		fixed[i] = -1
	}
	fixed[0] = 0
	fixed[35] = 1
	for _, kind := range []InitialKind{GreedyGrowing, RandomInit} {
		part := initialBisectFresh(g, fixed, 0.5, kind, xrand.New(9))
		if part[0] != 0 || part[35] != 1 {
			t.Fatalf("%v ignored fixed vertices", kind)
		}
	}
}

func TestFMRefineReducesCut(t *testing.T) {
	g := grid2D(12, 1)
	rng := xrand.New(11)
	part := make([]int32, g.Len())
	for v := range part {
		part[v] = int32(rng.Intn(2))
	}
	before := EdgeCut(g, part)
	total := g.TotalVertexWeight()
	fmRefine(g, part, nil, total*45/100, total*55/100, 10, &refiner{})
	after := EdgeCut(g, part)
	if after >= before {
		t.Fatalf("FM did not improve random bisection: %d -> %d", before, after)
	}
	var w0 int64
	for v, p := range part {
		if p == 0 {
			w0 += g.VertexWeight(v)
		}
	}
	if w0 < total*45/100 || w0 > total*55/100 {
		t.Fatalf("FM broke balance: %d of %d", w0, total)
	}
}

func TestFMRefineLocksFixed(t *testing.T) {
	g := grid2D(8, 1)
	part := make([]int32, g.Len())
	fixed := make([]int32, g.Len())
	for i := range fixed {
		fixed[i] = -1
		part[i] = int32(i % 2)
	}
	fixed[7] = 1
	part[7] = 1
	total := g.TotalVertexWeight()
	fmRefine(g, part, fixed, total*40/100, total*60/100, 8, &refiner{})
	if part[7] != 1 {
		t.Fatal("FM moved a fixed vertex")
	}
}

func TestFMRefineEmptyGraph(t *testing.T) {
	g := NewGraph(0)
	fmRefine(g, nil, nil, 0, 0, 4, &refiner{}) // must not panic
}

func TestMatchingKindStrings(t *testing.T) {
	if HeavyEdgeMatching.String() != "heavy-edge" || RandomMatching.String() != "random" {
		t.Fatal("matching labels")
	}
	if MatchingKind(9).String() != "unknown-matching" {
		t.Fatal("unknown matching label")
	}
	if GreedyGrowing.String() != "greedy-growing" || RandomInit.String() != "random" {
		t.Fatal("initial labels")
	}
	if InitialKind(9).String() != "unknown-initial" {
		t.Fatal("unknown initial label")
	}
}

func TestRandomMatchingCoarsens(t *testing.T) {
	g := grid2D(10, 1)
	l := coarsenFresh(g, nil, RandomMatching, xrand.New(2))
	if l == nil {
		t.Fatal("random matching failed to coarsen a grid")
	}
	if l.coarse.Len() >= g.Len() {
		t.Fatal("no contraction")
	}
}
