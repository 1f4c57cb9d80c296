package graph

import (
	"reflect"
	"testing"

	"numadag/internal/xrand"
)

// referenceInduced is the pre-scratch implementation of induced-subgraph
// extraction (map-based index, incremental AddNode/AddEdge construction),
// kept as the behavioral oracle: the slab-based path must reproduce it
// exactly, including adjacency order.
func referenceInduced(g *DAG, nodes []NodeID) (*DAG, []NodeID) {
	sub := New()
	toSub := make(map[NodeID]NodeID, len(nodes))
	back := make([]NodeID, len(nodes))
	for i, id := range nodes {
		toSub[id] = NodeID(i)
		back[i] = id
		sub.AddNode(g.Label(id), g.NodeWeight(id))
	}
	for _, id := range nodes {
		g.Succs(id, func(to NodeID, w int64) {
			if t, ok := toSub[to]; ok {
				sub.AddEdge(toSub[id], t, w)
			}
		})
	}
	return sub, back
}

// adjacency flattens a DAG's succ and pred lists preserving order, so two
// DAGs can be compared for bit-identical iteration behavior.
func adjacency(g *DAG) (succ, pred [][]halfEdge) {
	succ = make([][]halfEdge, g.Len())
	pred = make([][]halfEdge, g.Len())
	for i := 0; i < g.Len(); i++ {
		id := NodeID(i)
		g.Succs(id, func(to NodeID, w int64) { succ[i] = append(succ[i], halfEdge{to: to, w: w}) })
		g.Preds(id, func(from NodeID, w int64) { pred[i] = append(pred[i], halfEdge{to: from, w: w}) })
	}
	return succ, pred
}

func requireSameDAG(t *testing.T, want, got *DAG) {
	t.Helper()
	if want.Len() != got.Len() || want.Edges() != got.Edges() {
		t.Fatalf("shape mismatch: want %d nodes/%d edges, got %d/%d",
			want.Len(), want.Edges(), got.Len(), got.Edges())
	}
	for i := 0; i < want.Len(); i++ {
		id := NodeID(i)
		if want.Label(id) != got.Label(id) || want.NodeWeight(id) != got.NodeWeight(id) {
			t.Fatalf("node %d: want (%q,%d), got (%q,%d)",
				i, want.Label(id), want.NodeWeight(id), got.Label(id), got.NodeWeight(id))
		}
	}
	ws, wp := adjacency(want)
	gs, gp := adjacency(got)
	if !reflect.DeepEqual(ws, gs) {
		t.Fatalf("succ adjacency mismatch:\nwant %v\ngot  %v", ws, gs)
	}
	if !reflect.DeepEqual(wp, gp) {
		t.Fatalf("pred adjacency mismatch:\nwant %v\ngot  %v", wp, gp)
	}
}

// The scratch-based extraction must be indistinguishable from the reference
// construction — same nodes, weights, labels, edges and adjacency iteration
// order — across random DAGs, random (shuffled, partial) node subsets, and
// scratch reuse across graphs of different sizes.
func TestInducedSubgraphIntoMatchesReference(t *testing.T) {
	r := xrand.New(42)
	sc := &SubgraphScratch{}
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(60) + 2
		g := randomDAG(r, n, r.Intn(4*n))
		// Random subset in random order.
		perm := r.PermInto(make([]int, n))
		k := r.Intn(n) + 1
		nodes := make([]NodeID, k)
		for i := 0; i < k; i++ {
			nodes[i] = NodeID(perm[i])
		}
		want, wantBack := referenceInduced(g, nodes)
		got, gotBack := g.InducedSubgraphInto(sc, nodes)
		if !reflect.DeepEqual(wantBack, gotBack) {
			t.Fatalf("trial %d: back mapping mismatch: want %v, got %v", trial, wantBack, gotBack)
		}
		requireSameDAG(t, want, got)
	}
}

// An extraction into its own scratch is independently owned: extracting
// another subgraph from the same DAG must not disturb it.
func TestInducedSubgraphIndependentOwnership(t *testing.T) {
	r := xrand.New(7)
	g := randomDAG(r, 40, 120)
	nodes := []NodeID{5, 1, 17, 30, 2, 9}
	sub1, back1 := inducedSubgraph(g, nodes)
	s1, p1 := adjacency(sub1)
	back1Copy := append([]NodeID(nil), back1...)

	// A second, different extraction (and one through a shared scratch).
	inducedSubgraph(g, []NodeID{0, 3, 4, 6, 7, 8, 10, 11})
	sc := &SubgraphScratch{}
	g.InducedSubgraphInto(sc, []NodeID{12, 13, 14})
	g.InducedSubgraphInto(sc, []NodeID{20, 21, 22, 23})

	s1b, p1b := adjacency(sub1)
	if !reflect.DeepEqual(s1, s1b) || !reflect.DeepEqual(p1, p1b) {
		t.Fatal("InducedSubgraph result mutated by a later extraction")
	}
	if !reflect.DeepEqual(back1, back1Copy) {
		t.Fatal("InducedSubgraph back mapping mutated by a later extraction")
	}
}

// Appending an edge to a DAG extracted via a scratch must not clobber a
// neighboring adjacency list carved from the same slab.
func TestInducedSubgraphIntoAppendSafety(t *testing.T) {
	g := New()
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 1)
	c := g.AddNode("c", 1)
	d := g.AddNode("d", 1)
	g.AddEdge(a, b, 10)
	g.AddEdge(c, d, 20)

	sc := &SubgraphScratch{}
	sub, _ := g.InducedSubgraphInto(sc, []NodeID{a, b, c, d})
	sub.AddEdge(0, 3, 99) // forces succ[0] to grow past its exact-cap carve
	if w := sub.EdgeWeight(2, 3); w != 20 {
		t.Fatalf("neighbor list clobbered: edge c->d weight = %d, want 20", w)
	}
	if w := sub.EdgeWeight(0, 3); w != 99 {
		t.Fatalf("appended edge lost: weight = %d, want 99", w)
	}
}

func TestInducedSubgraphIntoDuplicatePanics(t *testing.T) {
	g := New()
	g.AddNode("a", 1)
	g.AddNode("b", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	g.InducedSubgraphInto(&SubgraphScratch{}, []NodeID{0, 1, 0})
}

// Epoch wrap: after the int32 stamp counter wraps, stale stamps must not be
// mistaken for current membership.
func TestSubgraphScratchEpochWrap(t *testing.T) {
	g := New()
	for i := 0; i < 4; i++ {
		g.AddNode("", 1)
	}
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 2, 5)
	sc := &SubgraphScratch{}
	g.InducedSubgraphInto(sc, []NodeID{0, 1, 2, 3}) // stamps everything at epoch 1
	sc.epoch = -1                                   // next increment wraps to 0
	sub, _ := g.InducedSubgraphInto(sc, []NodeID{0, 1})
	if sub.Len() != 2 || sub.Edges() != 1 {
		t.Fatalf("after epoch wrap: got %d nodes/%d edges, want 2/1", sub.Len(), sub.Edges())
	}
	if w := sub.EdgeWeight(0, 1); w != 5 {
		t.Fatalf("after epoch wrap: edge weight %d, want 5", w)
	}
}

func BenchmarkInducedSubgraph(b *testing.B) {
	r := xrand.New(1)
	const n = 2048
	g := randomDAG(r, n, 4*n)
	nodes := make([]NodeID, 0, n/2)
	for _, v := range r.PermInto(make([]int, n))[: n/2 : n/2] {
		nodes = append(nodes, NodeID(v))
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inducedSubgraph(g, nodes)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		sc := &SubgraphScratch{}
		g.InducedSubgraphInto(sc, nodes) // warm
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.InducedSubgraphInto(sc, nodes)
		}
	})
}
