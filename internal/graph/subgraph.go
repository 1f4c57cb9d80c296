package graph

import "fmt"

// SubgraphScratch holds the reusable state of InducedSubgraphInto: a dense
// original->subgraph index stamped with an epoch counter (so consecutive
// extractions skip clearing it), the back-mapping, and CSR-style halfEdge
// slabs the sub-DAG's adjacency lists are carved from. One scratch serves
// any number of extractions from any number of DAGs; every call overwrites
// the previous call's result. A scratch is single-goroutine state.
//
// The zero value is ready to use.
type SubgraphScratch struct {
	// idx[v] is v's subgraph ID, valid only when stamp[v] == epoch.
	idx   []int32
	stamp []int32
	epoch int32

	dag  DAG // the reused sub-DAG shell; its backing arrays grow monotonically
	back []NodeID
	deg  []int32 // per-subgraph-node degree scratch for slab sizing

	succSlab []halfEdge
	predSlab []halfEdge
}

// InducedSubgraphInto extracts the subgraph on the given nodes into sc's
// reusable backing and returns it together with the mapping back to the
// original IDs (subgraph ID i corresponds to nodes[i]). Edges with both
// endpoints inside are preserved; adjacency lists come out sorted by target
// ID, exactly as incremental AddEdge construction would produce them, so
// downstream consumers (symmetrization, tie-breaks) see identical state.
//
// The returned DAG and slice are owned by sc and valid only until its next
// use; they must not be retained across calls.
func (g *DAG) InducedSubgraphInto(sc *SubgraphScratch, nodes []NodeID) (*DAG, []NodeID) {
	n := g.Len()
	if cap(sc.idx) < n {
		sc.idx = make([]int32, n)
		sc.stamp = make([]int32, n)
	}
	idx, stamp := sc.idx[:n], sc.stamp[:n]
	sc.epoch++
	if sc.epoch == 0 { // stamp wrapped: old stamps could alias, clear them
		for i := range stamp {
			stamp[i] = 0
		}
		sc.epoch = 1
	}
	e := sc.epoch
	for i, id := range nodes {
		g.checkID(id)
		if stamp[id] == e {
			panic(fmt.Sprintf("graph: duplicate node %d in induced subgraph", id))
		}
		idx[id] = int32(i)
		stamp[id] = e
	}

	ns := len(nodes)
	sub := &sc.dag
	sub.nodeW = grow(sub.nodeW, ns)
	sub.labels.Reset()
	size := 0
	for _, v := range nodes {
		size += len(g.labels.View(int(v)))
	}
	sub.labels.Grow(ns, size)
	sub.succ = grow(sub.succ, ns)
	sub.pred = grow(sub.pred, ns)
	sc.back = grow(sc.back, ns)
	sc.deg = grow(sc.deg, ns)

	// Counting pass: per-node in-subset out-degrees size the succ slab (the
	// pred slab mirrors it: every kept edge contributes one half to each).
	deg := sc.deg
	total := 0
	for i, v := range nodes {
		sc.back[i] = v
		sub.nodeW[i] = g.nodeW[v]
		sub.labels.Add(g.labels.View(int(v)))
		d := 0
		for _, h := range g.succ[v] {
			if stamp[h.to] == e {
				d++
			}
		}
		deg[i] = int32(d)
		total += d
	}
	if cap(sc.succSlab) < total {
		sc.succSlab = make([]halfEdge, total)
		sc.predSlab = make([]halfEdge, total)
	}
	// Carve each list with exact capacity so a later append on the returned
	// DAG copies out of the slab instead of clobbering a neighbor list.
	off := 0
	for i := range nodes {
		d := int(deg[i])
		sub.succ[i] = sc.succSlab[off : off : off+d]
		off += d
	}

	// Fill passes, ordered so both adjacency lists come out sorted by
	// subgraph target ID without a sort: succ[j] entries are appended while
	// scanning subgraph nodes u in increasing ID (each u's in-subset
	// predecessors gain the edge u as target), and pred[i] symmetrically.
	predOff := 0
	for j, u := range nodes {
		cnt := 0
		for _, h := range g.pred[u] {
			if stamp[h.to] == e {
				i := idx[h.to]
				sub.succ[i] = append(sub.succ[i], halfEdge{to: NodeID(j), w: h.w})
				cnt++
			}
		}
		sub.pred[j] = sc.predSlab[predOff : predOff : predOff+cnt]
		predOff += cnt
	}
	for i, v := range nodes {
		for _, h := range g.succ[v] {
			if stamp[h.to] == e {
				j := idx[h.to]
				sub.pred[j] = append(sub.pred[j], halfEdge{to: NodeID(i), w: h.w})
			}
		}
	}
	sub.nEdges = total
	return sub, sc.back
}

// grow returns s resized to n, reusing its backing array when capacity
// allows and reallocating (without copying) otherwise.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
