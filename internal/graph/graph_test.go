package graph

import (
	"strconv"
	"testing"
	"testing/quick"

	"numadag/internal/xrand"
)

// hasEdge reports whether from -> to exists.
func hasEdge(g *DAG, from, to NodeID) bool {
	_, ok := findHalf(g.succ[from], to)
	return ok
}

// rootsOf returns the nodes with no predecessors, in ID order.
func rootsOf(g *DAG) []NodeID {
	var out []NodeID
	for i := 0; i < g.Len(); i++ {
		if g.InDegree(NodeID(i)) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// leavesOf returns the nodes with no successors, in ID order.
func leavesOf(g *DAG) []NodeID {
	var out []NodeID
	for i := 0; i < g.Len(); i++ {
		if g.OutDegree(NodeID(i)) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// inducedSubgraph extracts the subgraph on nodes into a fresh scratch, so
// the result is independently owned.
func inducedSubgraph(g *DAG, nodes []NodeID) (*DAG, []NodeID) {
	return g.InducedSubgraphInto(&SubgraphScratch{}, nodes)
}

// diamond builds a <- {b, c} <- d ... actually a->b, a->c, b->d, c->d.
func diamond(t *testing.T) (*DAG, [4]NodeID) {
	t.Helper()
	g := New()
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 2)
	c := g.AddNode("c", 3)
	d := g.AddNode("d", 4)
	g.AddEdge(a, b, 10)
	g.AddEdge(a, c, 20)
	g.AddEdge(b, d, 30)
	g.AddEdge(c, d, 40)
	return g, [4]NodeID{a, b, c, d}
}

func TestAddNodesAndEdges(t *testing.T) {
	g, ids := diamond(t)
	if g.Len() != 4 || g.Edges() != 4 {
		t.Fatalf("len=%d edges=%d, want 4/4", g.Len(), g.Edges())
	}
	if !hasEdge(g, ids[0], ids[1]) || hasEdge(g, ids[1], ids[0]) {
		t.Fatal("edge direction wrong")
	}
	if w := g.EdgeWeight(ids[2], ids[3]); w != 40 {
		t.Fatalf("edge weight = %d, want 40", w)
	}
	if w := g.EdgeWeight(ids[3], ids[0]); w != 0 {
		t.Fatalf("absent edge weight = %d, want 0", w)
	}
	if g.NodeWeight(ids[3]) != 4 || g.Label(ids[3]) != "d" {
		t.Fatal("node attributes lost")
	}
}

func TestParallelEdgeAccumulates(t *testing.T) {
	g := New()
	a, b := g.AddNode("a", 1), g.AddNode("b", 1)
	g.AddEdge(a, b, 5)
	g.AddEdge(a, b, 7)
	if g.Edges() != 1 {
		t.Fatalf("parallel edge created a second edge")
	}
	if w := g.EdgeWeight(a, b); w != 12 {
		t.Fatalf("accumulated weight = %d, want 12", w)
	}
	// Predecessor side must agree.
	g.Preds(b, func(from NodeID, w int64) {
		if from != a || w != 12 {
			t.Fatalf("pred edge = (%d, %d)", from, w)
		}
	})
}

func TestSelfLoopPanics(t *testing.T) {
	g := New()
	a := g.AddNode("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	g.AddEdge(a, a, 1)
}

func TestNegativeWeightsPanic(t *testing.T) {
	g := New()
	a, b := g.AddNode("a", 1), g.AddNode("b", 1)
	for _, f := range []func(){
		func() { g.AddNode("bad", -1) },
		func() { g.AddEdge(a, b, -1) },
	} {
		func() {
			defer func() { _ = recover() }()
			f()
			t.Error("negative weight accepted")
		}()
	}
}

func TestDegreesRootsLeaves(t *testing.T) {
	g, ids := diamond(t)
	if g.InDegree(ids[0]) != 0 || g.OutDegree(ids[0]) != 2 {
		t.Fatal("root degrees wrong")
	}
	if g.InDegree(ids[3]) != 2 || g.OutDegree(ids[3]) != 0 {
		t.Fatal("leaf degrees wrong")
	}
	roots, leaves := rootsOf(g), leavesOf(g)
	if len(roots) != 1 || roots[0] != ids[0] {
		t.Fatalf("roots = %v", roots)
	}
	if len(leaves) != 1 || leaves[0] != ids[3] {
		t.Fatalf("leaves = %v", leaves)
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	g, _ := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.EdgeList() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %v violates topo order %v", e, order)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a", 1), g.AddNode("b", 1), g.AddNode("c", 1)
	g.AddEdge(a, b, 1)
	g.AddEdge(b, c, 1)
	g.AddEdge(c, a, 1) // cycle
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed cycle")
	}
}

func TestLevels(t *testing.T) {
	g, ids := diamond(t)
	lvl, n, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("levels = %d, want 3", n)
	}
	want := map[NodeID]int{ids[0]: 0, ids[1]: 1, ids[2]: 1, ids[3]: 2}
	for id, l := range want {
		if lvl[id] != l {
			t.Errorf("level[%d] = %d, want %d", id, lvl[id], l)
		}
	}
}

func TestLevelsEmptyGraph(t *testing.T) {
	g := New()
	_, n, err := g.Levels()
	if err != nil || n != 0 {
		t.Fatalf("empty graph levels = %d, err %v", n, err)
	}
}

func TestCriticalPath(t *testing.T) {
	g, _ := diamond(t)
	// Longest weighted path: a(1) -> c(3) -> d(4) = 8.
	cp, err := g.CriticalPathWeight()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 8 {
		t.Fatalf("critical path = %d, want 8", cp)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, ids := diamond(t)
	sub, back := inducedSubgraph(g, []NodeID{ids[0], ids[1], ids[3]})
	if sub.Len() != 3 {
		t.Fatalf("subgraph len = %d", sub.Len())
	}
	// Edges inside: a->b, b->d. Edge via c is dropped.
	if sub.Edges() != 2 {
		t.Fatalf("subgraph edges = %d, want 2", sub.Edges())
	}
	if back[0] != ids[0] || back[1] != ids[1] || back[2] != ids[3] {
		t.Fatalf("back mapping = %v", back)
	}
	if sub.EdgeWeight(0, 1) != 10 || sub.EdgeWeight(1, 2) != 30 {
		t.Fatal("subgraph edge weights wrong")
	}
}

func TestInducedSubgraphDuplicatePanics(t *testing.T) {
	g, ids := diamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node did not panic")
		}
	}()
	inducedSubgraph(g, []NodeID{ids[0], ids[0]})
}

func TestTotalWeights(t *testing.T) {
	g, _ := diamond(t)
	if g.TotalNodeWeight() != 10 {
		t.Fatalf("TotalNodeWeight = %d", g.TotalNodeWeight())
	}
	if g.TotalEdgeWeight() != 100 {
		t.Fatalf("TotalEdgeWeight = %d", g.TotalEdgeWeight())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := New()
	g.AddNode("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range id did not panic")
		}
	}()
	g.AddEdge(0, 5, 1)
}

// randomDAG builds a random DAG with edges only from lower to higher IDs
// (guaranteed acyclic).
func randomDAG(r *xrand.Rand, n, extraEdges int) *DAG {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("", int64(r.Intn(100)+1))
	}
	for i := 0; i < extraEdges; i++ {
		a := r.Intn(n)
		b := r.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		g.AddEdge(NodeID(a), NodeID(b), int64(r.Intn(1000)+1))
	}
	return g
}

// Property: topological order respects all edges on random DAGs.
func TestPropertyTopoOrderRespectsEdges(t *testing.T) {
	f := func(seed uint64, n8 uint8, e8 uint8) bool {
		n := int(n8%60) + 2
		g := randomDAG(xrand.New(seed), n, int(e8))
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.EdgeList() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: induced subgraph over all nodes is the same graph.
func TestPropertyInducedSubgraphIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomDAG(xrand.New(seed), 30, 60)
		all := make([]NodeID, g.Len())
		for i := range all {
			all[i] = NodeID(i)
		}
		sub, _ := inducedSubgraph(g, all)
		if sub.Len() != g.Len() || sub.Edges() != g.Edges() {
			return false
		}
		return sub.TotalEdgeWeight() == g.TotalEdgeWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddEdge(b *testing.B) {
	g := New()
	for i := 0; i <= b.N; i++ {
		g.AddNode("", 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 64)
	}
}

func BenchmarkTopoOrder10k(b *testing.B) {
	g := randomDAG(xrand.New(1), 10000, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopoOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddNodeDepsMatchesAddEdge builds random DAGs twice — once with
// AddNode plus one AddEdge per (possibly repeated) dependence, once with
// AddNodeDeps over the merged, sorted dependences — and demands identical
// adjacency, in order, with identical weights and edge counts — also in the
// copy CompactInto makes with every list in one slab. Extra edges inserted
// afterwards with AddEdge into the middle of lists carved from a shared
// chunk or slab must not clobber their neighbors.
func TestAddNodeDepsMatchesAddEdge(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 50; trial++ {
		ref, got := New(), New()
		n := 1 + rng.Intn(40)
		for v := 0; v < n; v++ {
			merged := map[NodeID]int64{}
			var deps []Dep
			if v > 0 {
				for k := rng.Intn(6); k > 0; k-- {
					from := NodeID(rng.Intn(v))
					w := int64(rng.Intn(100))
					merged[from] += w
				}
			}
			id := ref.AddNode("n", int64(v))
			for from := NodeID(0); from < id; from++ {
				if w, ok := merged[from]; ok {
					ref.AddEdge(from, id, w)
					deps = append(deps, Dep{From: from, Weight: w})
				}
			}
			if gid := got.AddNodeDeps("n", int64(v), deps); gid != id {
				t.Fatalf("trial %d: AddNodeDeps id %d, want %d", trial, gid, id)
			}
		}
		for v := 0; v < n; v++ {
			id := NodeID(v)
			if cap(got.pred[id]) != len(got.pred[id]) {
				t.Fatalf("trial %d node %d: pred list cap %d, len %d", trial, v, cap(got.pred[id]), len(got.pred[id]))
			}
		}
		compareAdjacency(t, trial, ref, got)
		if trial%2 == 1 {
			compacted := New()
			got.CompactInto(compacted)
			got = compacted
			compareAdjacency(t, trial, ref, got)
			for v := 0; v < n; v++ {
				if s, p := got.succ[v], got.pred[v]; cap(s) != len(s) || cap(p) != len(p) {
					t.Fatalf("trial %d node %d: compacted lists have spare capacity", trial, v)
				}
			}
		}
		for k := 0; k < n && n > 1; k++ {
			from := NodeID(rng.Intn(n - 1))
			to := from + 1 + NodeID(rng.Intn(n-1-int(from)))
			w := int64(rng.Intn(50))
			ref.AddEdge(from, to, w)
			got.AddEdge(from, to, w)
		}
		compareAdjacency(t, trial, ref, got)
	}
}

func compareAdjacency(t *testing.T, trial int, ref, got *DAG) {
	t.Helper()
	if ref.Edges() != got.Edges() {
		t.Fatalf("trial %d: %d edges, want %d", trial, got.Edges(), ref.Edges())
	}
	for v := 0; v < ref.Len(); v++ {
		id := NodeID(v)
		if !equalHalves(ref.succ[id], got.succ[id]) || !equalHalves(ref.pred[id], got.pred[id]) {
			t.Fatalf("trial %d node %d: adjacency differs\nsucc %v vs %v\npred %v vs %v",
				trial, v, ref.succ[id], got.succ[id], ref.pred[id], got.pred[id])
		}
	}
}

func equalHalves(a, b []halfEdge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAddNodeDepsRejectsBadDeps(t *testing.T) {
	for name, deps := range map[string][]Dep{
		"unsorted":  {{From: 1, Weight: 1}, {From: 0, Weight: 1}},
		"repeated":  {{From: 0, Weight: 1}, {From: 0, Weight: 1}},
		"self":      {{From: 2, Weight: 1}},
		"negative":  {{From: -1, Weight: 1}},
		"negweight": {{From: 0, Weight: -1}},
	} {
		g := New()
		g.AddNode("a", 0)
		g.AddNode("b", 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AddNodeDeps accepted %v", name, deps)
				}
			}()
			g.AddNodeDeps("c", 0, deps)
		}()
		if g.Len() != 2 || g.Edges() != 0 {
			t.Errorf("%s: a rejected AddNodeDeps left %d nodes, %d edges", name, g.Len(), g.Edges())
		}
	}
}

// randomDeps returns, for each of n nodes, a sorted, merged dependence list
// on earlier nodes: up to maxK predecessors each, plus, for node wide, one
// on every earlier node.
func randomDeps(rng *xrand.Rand, n, maxK, wide int) [][]Dep {
	deps := make([][]Dep, n)
	for v := 1; v < n; v++ {
		if v == wide {
			for from := 0; from < v; from++ {
				deps[v] = append(deps[v], Dep{From: NodeID(from), Weight: int64(from)})
			}
			continue
		}
		seen := map[NodeID]bool{}
		for k := rng.Intn(maxK + 1); k > 0; k-- {
			seen[NodeID(rng.Intn(v))] = true
		}
		for from := NodeID(0); from < NodeID(v); from++ {
			if seen[from] {
				deps[v] = append(deps[v], Dep{From: from, Weight: int64(rng.Intn(100))})
			}
		}
	}
	return deps
}

// buildDeps adds one node per dependence list to g, labelling node v of an
// n-node graph depsLabel(v, n): graphs of different sizes differ in every
// label, and labels differ in length.
func buildDeps(g *DAG, deps [][]Dep) {
	labels := depsLabels[len(deps)]
	if labels == nil {
		labels = make([]string, len(deps))
		for v := range labels {
			labels[v] = depsLabel(v, len(deps))
		}
		depsLabels[len(deps)] = labels
	}
	for v, d := range deps {
		g.AddNodeDeps(labels[v], int64(v), d)
	}
}

// depsLabel is the label buildDeps gives node v of an n-node graph.
func depsLabel(v, n int) string { return strconv.Itoa(v) + "/" + strconv.Itoa(n) }

// depsLabels memoizes buildDeps' labels by graph size, so a rebuild in an
// allocation test formats none.
var depsLabels = map[int][]string{}

// TestResetRebuildMatchesFresh pins Reset: a graph rebuilt after Reset,
// reusing the chunks of larger and smaller earlier builds, equals the same
// graph built on a new DAG, and a reset graph references no label or
// adjacency list of the build before it.
func TestResetRebuildMatchesFresh(t *testing.T) {
	rng := xrand.New(11)
	reused := New()
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(600)
		wide := -1
		if trial%5 == 4 {
			n += adjChunk
			wide = n - 1 // a predecessor list longer than a chunk
		}
		deps := randomDeps(rng, n, 6, wide)
		fresh := New()
		buildDeps(fresh, deps)
		reused.Reset()
		if reused.Len() != 0 || reused.Edges() != 0 {
			t.Fatalf("trial %d: reset graph has %d nodes, %d edges", trial, reused.Len(), reused.Edges())
		}
		if reused.labels.Len() != 0 {
			t.Fatalf("trial %d: reset graph keeps %d labels", trial, reused.labels.Len())
		}
		for _, lists := range [2][][]halfEdge{reused.succ[:cap(reused.succ)], reused.pred[:cap(reused.pred)]} {
			for i, l := range lists {
				if l != nil {
					t.Fatalf("trial %d: reset graph keeps node %d's adjacency", trial, i)
				}
			}
		}
		buildDeps(reused, deps)
		compareAdjacency(t, trial, fresh, reused)
		for v := 0; v < n; v++ {
			id := NodeID(v)
			if fresh.Label(id) != reused.Label(id) || fresh.NodeWeight(id) != reused.NodeWeight(id) {
				t.Fatalf("trial %d node %d: (%q, %d), want (%q, %d)", trial, v,
					reused.Label(id), reused.NodeWeight(id), fresh.Label(id), fresh.NodeWeight(id))
			}
		}
	}
}

// TestCompactIntoMatchesSource pins CompactInto on one reused destination
// across graphs that grow, shrink and grow again: the copy equals its
// source (nodes, labels, weights, adjacency in order), every list has
// exact capacity, the source is left as it was, a destination no smaller
// than the graph keeps its node arrays and slab (and its label bytes, which
// TestCompactIntoSteadyStateAllocs pins), and neither appending to a
// compacted list nor adding nodes after it clobbers a neighbor. The copy's
// labels are its own: they survive the source being reset and rebuilt with
// other labels, and a label read from the copy keeps its value after the
// next graph is compacted into the same storage.
func TestCompactIntoMatchesSource(t *testing.T) {
	rng := xrand.New(17)
	dst := New()
	var kept, keptWant string // a label read from the previous trial's copy
	for trial, n := range []int{300, 40, 900, 5, 0, 600, adjChunk + 50} {
		wide := -1
		if n > adjChunk {
			wide = n - 1 // a predecessor list longer than a chunk
		}
		deps := randomDeps(rng, n, 6, wide)
		src, ref := New(), New()
		buildDeps(src, deps)
		buildDeps(ref, deps)
		nodeW, slab := dst.nodeW[:cap(dst.nodeW)], []halfEdge(nil)
		if len(dst.chunks) > 0 {
			slab = dst.chunks[0]
		}
		src.CompactInto(dst)
		compareAdjacency(t, trial, ref, src)
		// The source's storage goes on to another build, as a runtime's
		// does once Snap has copied its graph.
		src.Reset()
		buildDeps(src, randomDeps(rng, n+7, 3, -1))
		compareAdjacency(t, trial, ref, dst)
		for v := 0; v < n; v++ {
			id := NodeID(v)
			if dst.Label(id) != depsLabel(v, n) || dst.Label(id) != ref.Label(id) || dst.NodeWeight(id) != ref.NodeWeight(id) {
				t.Fatalf("trial %d node %d: (%q, %d), want (%q, %d)", trial, v,
					dst.Label(id), dst.NodeWeight(id), ref.Label(id), ref.NodeWeight(id))
			}
			if s, p := dst.succ[v], dst.pred[v]; cap(s) != len(s) || cap(p) != len(p) {
				t.Fatalf("trial %d node %d: compacted lists have spare capacity", trial, v)
			}
		}
		if kept != keptWant {
			t.Fatalf("trial %d: a label read from the previous copy changed from %q to %q", trial, keptWant, kept)
		}
		if n > 0 {
			kept, keptWant = dst.Label(NodeID(n-1)), depsLabel(n-1, n)
		}
		if n > 0 && n <= len(nodeW) && &dst.nodeW[0] != &nodeW[0] {
			t.Fatalf("trial %d: %d nodes did not reuse node arrays of capacity %d", trial, n, cap(nodeW))
		}
		if need := 2 * ref.Edges(); need > 0 && need <= len(slab) && &dst.chunks[0][0] != &slab[0] {
			t.Fatalf("trial %d: %d half-edges did not reuse a slab of %d", trial, need, len(slab))
		}
		if n < 2 {
			continue
		}
		// Grow the copy: AddEdge appends to exact-capacity lists, and
		// AddNodeDeps carves from chunks past the slab.
		for k := 0; k < n; k++ {
			from := NodeID(rng.Intn(n - 1))
			to := from + 1 + NodeID(rng.Intn(n-1-int(from)))
			w := int64(rng.Intn(50))
			ref.AddEdge(from, to, w)
			dst.AddEdge(from, to, w)
		}
		more := []Dep{{From: 0, Weight: 3}, {From: NodeID(n - 1), Weight: 4}}
		ref.AddNodeDeps("extra", 1, more)
		dst.AddNodeDeps("extra", 1, more)
		compareAdjacency(t, trial, ref, dst)
	}
}
