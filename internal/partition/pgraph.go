// Package partition implements the multilevel graph partitioner that stands
// in for SCOTCH in the paper's runtime-graph-partitioning (RGP) policies.
//
// The pipeline is the classic multilevel scheme SCOTCH and METIS share:
//
//	coarsen (heavy-edge matching)  ->  initial partition (greedy growing)
//	                               ->  uncoarsen + Fiduccia–Mattheyses refine
//
// k-way partitions are produced by recursive bisection, and mapping onto a
// NUMA architecture graph uses dual recursive bipartitioning (Pellegrini,
// SHPCC'94): the architecture's socket set is split top-down alongside the
// task graph, so the cheapest cuts land on the most distant socket groups.
//
// # Refinement and the gain-bucket structure
//
// FM refinement draws its move candidates from an indexed gain-bucket array
// (gainbucket.go) rather than a binary heap: a dense bucket array indexed
// by quantized gain (offset by the pass's max vertex degree-weight bound,
// stepped by a power of two so byte-scale edge weights don't explode the
// array), intrusive doubly-linked vertex lists per bucket with a pos index
// for O(1) remove/reinsert on neighbor-gain updates, a two-level occupancy
// bitmap, and a max-gain cursor that decays monotonically between
// insertions. Exact per-vertex gains are kept alongside, so quantization
// never changes which vertex is extracted.
//
// # Pooled state and its lifetime
//
// All partitioner state — the gain-bucket, subgraph/coarsening index
// arrays, initial-bisection and k-way buffers, and the multilevel hierarchy
// itself — lives in a pooled refiner threaded through Partition and MapOnto,
// so a call allocates a fixed number of objects whatever the graph size or
// coarsening depth. The hierarchy is one store per coarsening depth (the
// coarse graph, the fine->coarse map, the coarse pins and the projected
// partition of that depth's fine graph) plus one subgraph and two
// initial-bisection try buffers. One set serves every bisection of the
// recursion and every call because a bisection's hierarchy is dead before
// the next bisection starts: recursiveBisect and drb split their vertex set
// by the returned partition, in place, before they recurse. The rule that
// keeps this safe is therefore that the partition multilevelBisect returns
// is valid only until the next bisection, and the split consumes it first.
//
// Contraction builds each coarse graph in two linear passes. The first
// appends every crossing edge half in the order AddEdge was once fed (fine
// vertex ascending, adjacency order, lower endpoint only); the second folds
// each coarse list's repeats into their first occurrence through a dense
// marker array. AddEdge's dedup scan also kept neighbors in first-occurrence
// order, and int64 weight sums are exact in any order, so every coarse
// adjacency list — and with it every downstream tie-break — is what the
// O(d²) AddEdge loop produced. The AddEdge contraction survives as the
// test-only coarsenReference that TestCoarsenMatchesReference and
// FuzzCoarsen replay against coarsen.
//
// # Determinism contract
//
// All randomness is seeded; identical inputs and options yield identical
// partitions. More specifically, the refiner commits to the exact candidate
// order of the container/heap implementation it replaced: highest gain
// first, ties broken toward the lowest vertex id, and a vertex whose move
// fails the balance check leaves the queue until a neighbor's move changes
// its gain. Any reimplementation must preserve that order bit-for-bit — the
// determinism goldens (testdata/determinism.json at the repo root) pin it
// transitively, and the in-package harness enforces it directly: the old
// heap refiner survives as a test-only reference (refine_reference_test.go)
// that the equivalence suite and FuzzFMRefine replay against the bucket
// implementation, demanding identical move sequences and final partitions.
package partition

import (
	"fmt"

	"numadag/internal/graph"
)

// Graph is an undirected weighted graph in adjacency-list form, the
// partitioner's working representation. Vertices are 0..N-1.
type Graph struct {
	nw  []int64      // vertex weights
	adj [][]neighbor // adjacency, deduplicated, no self-loops
	// slab backs the adjacency lists carved by LoadDAG, subgraph and
	// coarsen; reused across refills (see reset) so a pooled Graph stops
	// allocating once the slab has grown to the largest graph seen.
	slab []neighbor
}

type neighbor struct {
	to int32
	w  int64
}

// NewGraph returns a graph with n zero-weight vertices and no edges.
func NewGraph(n int) *Graph {
	return &Graph{nw: make([]int64, n), adj: make([][]neighbor, n)}
}

// Len returns the vertex count.
func (g *Graph) Len() int { return len(g.nw) }

// SetVertexWeight assigns the vertex weight (must be non-negative).
// Production graphs get their weights from FromDAG and coarsening;
// SetVertexWeight, VertexWeight and Neighbors are facade API for custom
// builders (numadag.PGraph aliases Graph, and NewPGraph returns an empty
// one).
func (g *Graph) SetVertexWeight(v int, w int64) {
	if w < 0 {
		panic(fmt.Sprintf("partition: negative vertex weight %d", w))
	}
	g.nw[v] = w
}

// VertexWeight returns the vertex weight (facade API, see SetVertexWeight).
func (g *Graph) VertexWeight(v int) int64 { return g.nw[v] }

// AddEdge inserts an undirected edge, accumulating weight over duplicates.
// Self-loops are ignored (they never affect a cut).
func (g *Graph) AddEdge(a, b int, w int64) {
	if w < 0 {
		panic(fmt.Sprintf("partition: negative edge weight %d", w))
	}
	if a == b {
		return
	}
	g.addHalf(a, b, w)
	g.addHalf(b, a, w)
}

func (g *Graph) addHalf(from, to int, w int64) {
	for i := range g.adj[from] {
		if g.adj[from][i].to == int32(to) {
			g.adj[from][i].w += w
			return
		}
	}
	g.adj[from] = append(g.adj[from], neighbor{to: int32(to), w: w})
}

// Neighbors calls fn for every neighbor of v (facade API, see
// SetVertexWeight).
func (g *Graph) Neighbors(v int, fn func(u int, w int64)) {
	for _, nb := range g.adj[v] {
		fn(int(nb.to), nb.w)
	}
}

// TotalVertexWeight sums all vertex weights.
func (g *Graph) TotalVertexWeight() int64 {
	var s int64
	for _, w := range g.nw {
		s += w
	}
	return s
}

// TotalEdgeWeight sums each undirected edge's weight once.
func (g *Graph) TotalEdgeWeight() int64 {
	var s int64
	for v := range g.adj {
		for _, nb := range g.adj[v] {
			if int(nb.to) > v {
				s += nb.w
			}
		}
	}
	return s
}

// FromDAG symmetrizes a task dependency graph into the partitioner's
// undirected form: each directed dependency contributes its byte weight to
// the undirected edge between the two tasks, and node weights carry over.
// Zero node weights are lifted to 1 so balance constraints stay meaningful
// for degenerate inputs.
func FromDAG(d *graph.DAG) *Graph {
	g := &Graph{}
	g.LoadDAG(d)
	return g
}

// LoadDAG symmetrizes d into g, reusing g's vertex, adjacency-header and
// edge-slab backing from previous loads — the allocation-free counterpart of
// FromDAG for callers that symmetrize one window after another into a pooled
// Graph. The previous load's contents are discarded.
//
// The result is identical to FromDAG's incremental AddEdge construction:
// adjacency entries appear in the order a (From, To)-ordered edge scan would
// append them. d must be acyclic (as every runtime TDG is) — a 2-cycle would
// need the duplicate accumulation AddEdge performs and LoadDAG skips.
func (g *Graph) LoadDAG(d *graph.DAG) {
	n := d.Len()
	g.reset(n, 2*d.Edges())
	// Carve each vertex's list with exact capacity (its degree in the
	// symmetrized graph is out-degree + in-degree, since the DAG holds each
	// dependency once), so a later AddEdge grows out of the slab instead of
	// clobbering the next list.
	off := 0
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		w := d.NodeWeight(id)
		if w == 0 {
			w = 1
		}
		g.nw[v] = w
		deg := d.OutDegree(id) + d.InDegree(id)
		g.adj[v] = g.slab[off : off : off+deg]
		off += deg
	}
	// Fill in (From, To) edge order — each directed edge appends both halves,
	// exactly as FromDAG's EdgeList+AddEdge loop used to.
	for v := 0; v < n; v++ {
		from := v
		d.Succs(graph.NodeID(v), func(to graph.NodeID, w int64) {
			if w == 0 {
				w = 1
			}
			g.adj[from] = append(g.adj[from], neighbor{to: int32(to), w: w})
			g.adj[to] = append(g.adj[to], neighbor{to: int32(from), w: w})
		})
	}
}

// reset empties g to n zero-weight vertices with room for slabLen adjacency
// entries, the one grow path of every pooled Graph (LoadDAG, subgraph,
// coarsen): the vertex, header and slab arrays are regrown only when they
// are too small, so refilling a Graph no larger than before allocates
// nothing. The caller carves g.adj from g.slab.
func (g *Graph) reset(n, slabLen int) {
	if cap(g.nw) < n {
		g.nw = make([]int64, n)
		g.adj = make([][]neighbor, n)
	}
	g.nw = g.nw[:n]
	g.adj = g.adj[:n]
	for v := range g.nw {
		g.nw[v] = 0
	}
	if cap(g.slab) < slabLen {
		g.slab = make([]neighbor, slabLen)
	}
}

// EdgeCut returns the total weight of edges whose endpoints lie in
// different parts.
func EdgeCut(g *Graph, part []int32) int64 {
	var cut int64
	for v := range g.adj {
		for _, nb := range g.adj[v] {
			if int(nb.to) > v && part[v] != part[nb.to] {
				cut += nb.w
			}
		}
	}
	return cut
}

// PartWeights returns the total vertex weight per part.
func PartWeights(g *Graph, part []int32, k int) []int64 {
	w := make([]int64, k)
	for v, p := range part {
		w[p] += g.nw[v]
	}
	return w
}

// Imbalance returns max_p weight(p) / (total * target(p)) - 1; zero means
// perfectly balanced against the targets. targets nil means uniform.
func Imbalance(g *Graph, part []int32, k int, targets []float64) float64 {
	w := PartWeights(g, part, k)
	total := g.TotalVertexWeight()
	if total == 0 {
		return 0
	}
	worst := 0.0
	for p := 0; p < k; p++ {
		t := 1.0 / float64(k)
		if targets != nil {
			t = targets[p]
		}
		if t <= 0 {
			if w[p] > 0 {
				return 1e18 // weight in a zero-capacity part
			}
			continue
		}
		r := float64(w[p])/(float64(total)*t) - 1
		if r > worst {
			worst = r
		}
	}
	return worst
}

// CommCost returns the architecture-aware communication cost: the sum over
// cut edges of edgeWeight * dist(part(a), part(b)). This is the objective
// static mapping minimizes (plain edge cut treats all socket pairs alike).
func CommCost(g *Graph, part []int32, dist [][]int) int64 {
	var cost int64
	for v := range g.adj {
		for _, nb := range g.adj[v] {
			if int(nb.to) > v && part[v] != part[nb.to] {
				cost += nb.w * int64(dist[part[v]][part[nb.to]])
			}
		}
	}
	return cost
}
