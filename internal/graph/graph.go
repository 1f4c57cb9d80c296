// Package graph provides the weighted directed-acyclic-graph structure the
// runtime uses for task dependency graphs (TDGs), together with the
// algorithms the scheduler and partitioner need: topological orders, level
// assignment, critical paths and induced subgraphs. Node weights carry
// computational work; edge weights carry the
// bytes a dependency communicates, which is exactly the weighting §2.2 of
// the paper feeds to the partitioner.
//
// The hot extraction path is allocation-free in steady state: a
// SubgraphScratch owns an epoch-stamped dense node index (one int32 array
// the size of the source graph, invalidated by bumping an epoch counter
// instead of clearing) plus reusable CSR-style slabs that back every
// adjacency list of the extracted DAG. InducedSubgraphInto carves each
// list with exact capacity, so appending to one list (or to the source
// graph afterwards) can never clobber a neighbor's storage. The produced
// adjacency order is identical to incremental AddEdge construction —
// sorted by sub-graph ID — so window partitioning over extracted subgraphs
// stays bit-deterministic.
//
// Streaming construction is allocation-lean the same way: AddNodeDeps adds
// a node with all its incoming edges at once and carves every adjacency
// list it creates or outgrows from shared chunks, again with exact
// capacity. Node labels are not one string each: the graph copies every
// label's bytes into one byte array it owns, so a caller may pass a view of
// a buffer it refills, and Label hands out a copy. A graph that is built,
// used and dropped (a pooled runtime's own) is Reset for the next build:
// its node arrays, label bytes and chunks are kept, so a rebuild of a graph
// no larger allocates none of them again. CompactInto copies a finished
// graph, labels included, into another DAG with every adjacency list in one
// slab and no construction slack: the copy a runtime snapshot keeps while
// the build's storage goes on to the next build. The destination's node
// arrays, label bytes and slab are reused the same way, so compacting into
// a recycled DAG no smaller allocates nothing either.
package graph

import (
	"fmt"

	"numadag/internal/names"
)

// NodeID indexes a node within its DAG. IDs are dense: 0..N-1 in insertion
// order.
type NodeID int32

// Edge is a directed, weighted dependency between two nodes.
type Edge struct {
	From, To NodeID
	Weight   int64 // bytes communicated over the dependency
}

// DAG is a mutable directed acyclic graph with weighted nodes and edges.
// Mutation never reorders existing IDs, so external arrays indexed by NodeID
// stay valid as the graph grows (the runtime relies on this while streaming
// tasks in).
//
// The DAG does not check acyclicity on every AddEdge (that would be
// quadratic for the runtime's streaming use); TopoOrder returns an error on
// cyclic input and Validate performs a full check.
type DAG struct {
	nodeW  []int64
	labels names.List   // node i's label is labels' name i
	succ   [][]halfEdge // sorted by target id per node (kept sorted on insert)
	pred   [][]halfEdge
	nEdges int
	// chunks holds the chunks AddNodeDeps carves adjacency lists from, in
	// the order carve first took them; chunks[:next] are in use and adj is
	// the unused tail of the last of them. Reset rewinds next to 0, so the
	// next build carves the same chunks again.
	chunks [][]halfEdge
	next   int
	adj    []halfEdge
}

// adjChunk is the size of the chunks AddNodeDeps carves adjacency lists
// from.
const adjChunk = 1024

// carve returns an empty adjacency list with capacity n cut from the
// current chunk, moving on to the next kept chunk (or a new one) when the
// current one is too short. The capacity is exact, so appending to one
// carved list reallocates it instead of clobbering its neighbor.
func (g *DAG) carve(n int) []halfEdge {
	if cap(g.adj) < n {
		if g.next == len(g.chunks) {
			g.chunks = append(g.chunks, nil)
		}
		if len(g.chunks[g.next]) < n {
			g.chunks[g.next] = make([]halfEdge, max(n, adjChunk))
		}
		g.adj = g.chunks[g.next]
		g.next++
	}
	l := g.adj[:0:n]
	g.adj = g.adj[n:]
	return l
}

type halfEdge struct {
	to NodeID
	w  int64
}

// New returns an empty DAG.
func New() *DAG { return &DAG{} }

// Reset empties the graph for a new build and keeps its storage: the node
// arrays, the label bytes, and every adjacency chunk, which AddNodeDeps
// carves again from the first. Adjacency lists are cleared, so a reset
// graph references nothing of the build before it, and the next build
// overwrites the label bytes. Only the graph's sole owner may reset it:
// anyone still reading the graph, or a list it handed out, would see the
// next build overwrite it. A label Label returned before stays valid: it is
// a copy.
func (g *DAG) Reset() {
	clear(g.succ)
	clear(g.pred)
	g.labels.Reset()
	g.nodeW = g.nodeW[:0]
	g.succ, g.pred = g.succ[:0], g.pred[:0]
	g.nEdges = 0
	g.next, g.adj = 0, nil
}

// Len returns the number of nodes.
func (g *DAG) Len() int { return len(g.nodeW) }

// Edges returns the number of edges.
func (g *DAG) Edges() int { return g.nEdges }

// AddNode appends a node with the given label and weight, returning its ID.
// The graph copies the label's bytes before AddNode returns, so label may
// be a view of a buffer the caller refills for every node.
func (g *DAG) AddNode(label string, weight int64) NodeID {
	if weight < 0 {
		panic(fmt.Sprintf("graph: negative node weight %d", weight))
	}
	id := NodeID(len(g.nodeW))
	g.nodeW = append(g.nodeW, weight)
	g.labels.Add(label)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// Dep is one incoming edge of a node added by AddNodeDeps: the predecessor
// and the edge weight.
type Dep struct {
	From   NodeID
	Weight int64
}

// AddNodeDeps appends a node together with its incoming edges, as AddNode
// followed by AddEdge(d.From, id, d.Weight) for each dep would, with the
// same adjacency order. deps must be sorted by strictly increasing From
// (parallel dependences already merged into one weight). The node's
// predecessor list is allocated at exactly len(deps), and since the new node
// has the largest ID every successor list it joins grows at its end. Both
// lists are carved from shared chunks: a full successor list moves to a
// carved list of twice its capacity.
func (g *DAG) AddNodeDeps(label string, weight int64, deps []Dep) NodeID {
	next := NodeID(len(g.nodeW))
	for i, d := range deps {
		if d.Weight < 0 {
			panic(fmt.Sprintf("graph: negative edge weight %d", d.Weight))
		}
		if d.From < 0 || d.From >= next || (i > 0 && d.From <= deps[i-1].From) {
			panic(fmt.Sprintf("graph: dep %d of node %d: predecessor %d out of order or range", i, next, d.From))
		}
	}
	id := g.AddNode(label, weight)
	if len(deps) == 0 {
		return id
	}
	pred := g.carve(len(deps))
	for _, d := range deps {
		pred = append(pred, halfEdge{to: d.From, w: d.Weight})
		succ := g.succ[d.From]
		if len(succ) == cap(succ) {
			succ = append(g.carve(max(2*len(succ), 2)), succ...)
		}
		g.succ[d.From] = append(succ, halfEdge{to: id, w: d.Weight})
	}
	g.pred[id] = pred
	g.nEdges += len(deps)
	return id
}

// CompactInto makes dst a copy of g, with the same nodes, labels, weights
// and adjacency in the same order, after resetting dst. Every adjacency
// list of the copy is cut, with exact capacity, from one slab that dst keeps
// as its first chunk, so the copy holds none of the spare capacity and
// outgrown lists incremental construction (AddEdge's appends, AddNodeDeps'
// chunks) leaves in g. The label bytes are copied into dst's own, so g's
// storage may be reset and refilled while dst lives. dst's node arrays,
// label bytes and slab are reused when they are large enough and
// reallocated at exactly the size g needs when not, so a DAG that receives
// graphs no larger than an earlier one allocates nothing. g is only read;
// dst must be another DAG.
func (g *DAG) CompactInto(dst *DAG) {
	dst.Reset()
	n := len(g.nodeW)
	dst.nodeW = append(fit(dst.nodeW, n), g.nodeW...)
	dst.labels.CopyFrom(&g.labels)
	var slab []halfEdge
	if need := 2 * g.nEdges; need > 0 {
		if len(dst.chunks) == 0 {
			dst.chunks = append(dst.chunks, nil)
		}
		if len(dst.chunks[0]) < need {
			dst.chunks[0] = make([]halfEdge, need)
		}
		// The slab is in use: a later AddNodeDeps carves from the chunks
		// after it, and Reset hands it back to carve.
		slab, dst.next = dst.chunks[0], 1
	}
	dst.succ, slab = compactLists(fit(dst.succ, n), g.succ, slab)
	dst.pred, _ = compactLists(fit(dst.pred, n), g.pred, slab)
	dst.nEdges = g.nEdges
}

// compactLists appends to dst a copy of each list of src, cut from slab with
// exact capacity (nil for an empty list), and returns dst and the unused
// rest of slab.
func compactLists(dst, src [][]halfEdge, slab []halfEdge) ([][]halfEdge, []halfEdge) {
	for _, l := range src {
		if len(l) == 0 {
			dst = append(dst, nil)
			continue
		}
		k := copy(slab, l)
		dst = append(dst, slab[:k:k])
		slab = slab[k:]
	}
	return dst, slab
}

// fit returns s emptied, with room for n elements: s itself when its
// capacity suffices, else a new array of exactly n.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// NodeWeight returns the node's weight.
func (g *DAG) NodeWeight(id NodeID) int64 { return g.nodeW[id] }

// Label returns the node's label: a copy, which stays valid after the graph
// is Reset or refilled. Only traces, exports and error paths read labels.
func (g *DAG) Label(id NodeID) string { return g.labels.Get(int(id)) }

// AddEdge inserts an edge from -> to with the given weight. Inserting a
// parallel edge accumulates its weight onto the existing edge (multiple
// dependencies between the same task pair represent more communicated
// bytes, not more edges). Self-loops panic: a task cannot depend on itself.
func (g *DAG) AddEdge(from, to NodeID, weight int64) {
	if from == to {
		panic(fmt.Sprintf("graph: self-loop on node %d", from))
	}
	if weight < 0 {
		panic(fmt.Sprintf("graph: negative edge weight %d", weight))
	}
	g.checkID(from)
	g.checkID(to)
	if i, ok := findHalf(g.succ[from], to); ok {
		g.succ[from][i].w += weight
		j, _ := findHalf(g.pred[to], from)
		g.pred[to][j].w += weight
		return
	}
	g.succ[from] = insertHalf(g.succ[from], halfEdge{to: to, w: weight})
	g.pred[to] = insertHalf(g.pred[to], halfEdge{to: from, w: weight})
	g.nEdges++
}

// EdgeWeight returns the weight of from -> to, or 0 if absent.
func (g *DAG) EdgeWeight(from, to NodeID) int64 {
	g.checkID(from)
	g.checkID(to)
	if i, ok := findHalf(g.succ[from], to); ok {
		return g.succ[from][i].w
	}
	return 0
}

// Succs calls fn for each successor of id in increasing ID order.
func (g *DAG) Succs(id NodeID, fn func(to NodeID, w int64)) {
	for _, h := range g.succ[id] {
		fn(h.to, h.w)
	}
}

// Preds calls fn for each predecessor of id in increasing ID order.
func (g *DAG) Preds(id NodeID, fn func(from NodeID, w int64)) {
	for _, h := range g.pred[id] {
		fn(h.to, h.w)
	}
}

// OutDegree returns the number of successors.
func (g *DAG) OutDegree(id NodeID) int { return len(g.succ[id]) }

// InDegree returns the number of predecessors.
func (g *DAG) InDegree(id NodeID) int { return len(g.pred[id]) }

// EdgeList returns every edge, ordered by (From, To).
func (g *DAG) EdgeList() []Edge {
	out := make([]Edge, 0, g.nEdges)
	for from := range g.succ {
		for _, h := range g.succ[from] {
			out = append(out, Edge{From: NodeID(from), To: h.to, Weight: h.w})
		}
	}
	return out
}

// TotalNodeWeight sums all node weights.
func (g *DAG) TotalNodeWeight() int64 {
	var s int64
	for _, w := range g.nodeW {
		s += w
	}
	return s
}

// TotalEdgeWeight sums all edge weights.
func (g *DAG) TotalEdgeWeight() int64 {
	var s int64
	for _, succ := range g.succ {
		for _, h := range succ {
			s += h.w
		}
	}
	return s
}

// TopoOrder returns a topological order (Kahn's algorithm, smallest ID
// first among ready nodes, so the order is deterministic) or an error if the
// graph has a cycle.
func (g *DAG) TopoOrder() ([]NodeID, error) {
	n := g.Len()
	indeg := make([]int, n)
	for i := range indeg {
		indeg[i] = len(g.pred[i])
	}
	// Min-ordered ready set via a simple binary heap over NodeIDs.
	ready := &idHeap{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for ready.len() > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, h := range g.succ[id] {
			indeg[h.to]--
			if indeg[h.to] == 0 {
				ready.push(h.to)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// Validate returns an error if the graph contains a cycle.
func (g *DAG) Validate() error {
	_, err := g.TopoOrder()
	return err
}

// Levels returns, for each node, the length of the longest path from any
// root to it (roots are level 0), plus the number of levels. This is the
// "depth" structure wavefront apps exhibit.
func (g *DAG) Levels() ([]int, int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	lvl := make([]int, g.Len())
	maxLvl := 0
	for _, id := range order {
		for _, h := range g.pred[id] {
			if l := lvl[h.to] + 1; l > lvl[id] {
				lvl[id] = l
			}
		}
		if lvl[id] > maxLvl {
			maxLvl = lvl[id]
		}
	}
	if g.Len() == 0 {
		return lvl, 0, nil
	}
	return lvl, maxLvl + 1, nil
}

// CriticalPathWeight returns the maximum, over all paths, of the sum of node
// weights along the path — the lower bound on makespan with infinite cores.
func (g *DAG) CriticalPathWeight() (int64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	finish := make([]int64, g.Len())
	var best int64
	for _, id := range order {
		var start int64
		for _, h := range g.pred[id] {
			if finish[h.to] > start {
				start = finish[h.to]
			}
		}
		finish[id] = start + g.nodeW[id]
		if finish[id] > best {
			best = finish[id]
		}
	}
	return best, nil
}

func (g *DAG) checkID(id NodeID) {
	if id < 0 || int(id) >= len(g.nodeW) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", id, len(g.nodeW)))
	}
}

func findHalf(hs []halfEdge, to NodeID) (int, bool) {
	lo, hi := 0, len(hs)
	for lo < hi {
		mid := (lo + hi) / 2
		if hs[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(hs) && hs[lo].to == to {
		return lo, true
	}
	return lo, false
}

func insertHalf(hs []halfEdge, h halfEdge) []halfEdge {
	i, _ := findHalf(hs, h.to)
	hs = append(hs, halfEdge{})
	copy(hs[i+1:], hs[i:])
	hs[i] = h
	return hs
}

// idHeap is a minimal binary min-heap of NodeIDs for deterministic Kahn.
type idHeap struct{ xs []NodeID }

func (h *idHeap) len() int { return len(h.xs) }

func (h *idHeap) push(id NodeID) {
	h.xs = append(h.xs, id)
	i := len(h.xs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.xs[p] <= h.xs[i] {
			break
		}
		h.xs[p], h.xs[i] = h.xs[i], h.xs[p]
		i = p
	}
}

func (h *idHeap) pop() NodeID {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.xs[l] < h.xs[small] {
			small = l
		}
		if r < last && h.xs[r] < h.xs[small] {
			small = r
		}
		if small == i {
			break
		}
		h.xs[i], h.xs[small] = h.xs[small], h.xs[i]
		i = small
	}
	return top
}
