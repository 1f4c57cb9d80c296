package graph

import (
	"testing"

	"numadag/internal/xrand"
)

// Allocation-contract test for the window-pipeline hot path, run as a
// blocking deterministic test by `make test-allocs` alongside the sim and
// partition gates: with a warmed SubgraphScratch, extracting an induced
// subgraph — index stamping, slab carving, both fill passes — must not
// allocate.
func TestInducedSubgraphSteadyStateAllocs(t *testing.T) {
	r := xrand.New(3)
	const n = 1500
	g := randomDAG(r, n, 4*n)
	nodes := make([]NodeID, 0, n/2)
	for _, v := range r.PermInto(make([]int, n))[: n/2 : n/2] {
		nodes = append(nodes, NodeID(v))
	}
	sc := &SubgraphScratch{}
	g.InducedSubgraphInto(sc, nodes) // warm the scratch
	avg := testing.AllocsPerRun(20, func() {
		g.InducedSubgraphInto(sc, nodes)
	})
	if avg != 0 {
		t.Fatalf("InducedSubgraphInto allocates %v objects per op in steady state, want 0", avg)
	}
}

// A graph rebuilt after Reset carves the chunks and fills the node arrays
// and label bytes of the build before it: a rebuild no larger than an
// earlier build must not allocate. This is the storage a pooled runtime keeps between builds.
func TestResetRebuildSteadyStateAllocs(t *testing.T) {
	deps := randomDeps(xrand.New(4), 2000, 6, -1)
	g := New()
	buildDeps(g, deps) // grow the node arrays and chunks
	avg := testing.AllocsPerRun(20, func() {
		g.Reset()
		buildDeps(g, deps)
	})
	if avg != 0 {
		t.Fatalf("Reset and rebuild allocates %v objects per op, want 0", avg)
	}
}

// Compacting into a DAG that already received a graph no smaller reuses its
// node arrays, label bytes and slab: the copy a recycled runtime snapshot
// keeps must not allocate.
func TestCompactIntoSteadyStateAllocs(t *testing.T) {
	rng := xrand.New(4)
	big, small := New(), New()
	buildDeps(big, randomDeps(rng, 2000, 6, -1))
	buildDeps(small, randomDeps(rng, 1500, 6, -1))
	dst := New()
	big.CompactInto(dst) // grow the node arrays and slab
	avg := testing.AllocsPerRun(20, func() {
		small.CompactInto(dst)
		big.CompactInto(dst)
	})
	if avg != 0 {
		t.Fatalf("CompactInto allocates %v objects per op in steady state, want 0", avg)
	}
}
