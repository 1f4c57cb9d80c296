package partition

import (
	"reflect"
	"testing"

	"numadag/internal/graph"
	"numadag/internal/xrand"
)

func randomTestDAG(r *xrand.Rand, n, extraEdges int) *graph.DAG {
	d := graph.New()
	for i := 0; i < n; i++ {
		d.AddNode("", int64(r.Intn(50))) // zero weights included: exercises the lift
	}
	for i := 0; i < extraEdges; i++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		d.AddEdge(graph.NodeID(a), graph.NodeID(b), int64(r.Intn(3)*500)) // zero edge weights too
	}
	return d
}

// referenceFromDAG is the pre-slab FromDAG implementation (incremental
// AddEdge with linear dedup), kept as the oracle LoadDAG must match —
// including the order neighbors appear in each adjacency list, which the
// refiner's tie-breaking observes.
func referenceFromDAG(d *graph.DAG) *Graph {
	g := NewGraph(d.Len())
	for v := 0; v < d.Len(); v++ {
		w := d.NodeWeight(graph.NodeID(v))
		if w == 0 {
			w = 1
		}
		g.nw[v] = w
	}
	for _, e := range d.EdgeList() {
		w := e.Weight
		if w == 0 {
			w = 1
		}
		g.AddEdge(int(e.From), int(e.To), w)
	}
	return g
}

func requireSameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("vertex count: want %d, got %d", want.Len(), got.Len())
	}
	if !reflect.DeepEqual(want.nw, got.nw) {
		t.Fatalf("vertex weights differ:\nwant %v\ngot  %v", want.nw, got.nw)
	}
	for v := 0; v < want.Len(); v++ {
		wa, ga := want.adj[v], got.adj[v]
		if len(wa) == 0 && len(ga) == 0 {
			continue
		}
		if !reflect.DeepEqual(wa, ga) {
			t.Fatalf("adjacency of %d differs:\nwant %v\ngot  %v", v, wa, ga)
		}
	}
}

// LoadDAG must reproduce the incremental FromDAG construction exactly, and
// keep doing so when one pooled Graph is reloaded across DAGs of varying
// size (the per-window reuse pattern RGP drives).
func TestLoadDAGMatchesReference(t *testing.T) {
	r := xrand.New(11)
	pooled := &Graph{}
	for trial := 0; trial < 150; trial++ {
		n := r.Intn(80) + 1
		d := randomTestDAG(r, n, r.Intn(5*n))
		want := referenceFromDAG(d)
		pooled.LoadDAG(d)
		requireSameGraph(t, want, pooled)
		requireSameGraph(t, want, FromDAG(d))
	}
}

// AddEdge on a loaded graph must grow the touched list out of the shared
// slab without clobbering its neighbors.
func TestLoadDAGAppendSafety(t *testing.T) {
	d := graph.New()
	for i := 0; i < 4; i++ {
		d.AddNode("", 1)
	}
	d.AddEdge(0, 1, 10)
	d.AddEdge(2, 3, 20)
	g := &Graph{}
	g.LoadDAG(d)
	g.AddEdge(0, 3, 99)
	want := referenceFromDAG(d)
	want.AddEdge(0, 3, 99)
	requireSameGraph(t, want, g)
}

// Steady-state allocation contract for the symmetrization path, run by
// `make test-allocs`: reloading a warmed pooled Graph must not allocate.
func TestLoadDAGSteadyStateAllocs(t *testing.T) {
	r := xrand.New(5)
	d := randomTestDAG(r, 1200, 4800)
	g := &Graph{}
	g.LoadDAG(d) // warm
	avg := testing.AllocsPerRun(20, func() {
		g.LoadDAG(d)
	})
	if avg != 0 {
		t.Fatalf("LoadDAG allocates %v objects per op in steady state, want 0", avg)
	}
}
