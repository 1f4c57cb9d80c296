package partition

import (
	"testing"
	"testing/quick"

	"numadag/internal/xrand"
)

// scatter returns a deliberately bad k-way partition (seeded random
// assignment; plain round-robin on a grid whose width divides k aligns
// whole columns and leaves no single-move gains).
func scatter(n, k int) []int32 {
	rng := xrand.New(42)
	p := make([]int32, n)
	for v := range p {
		p[v] = int32(rng.Intn(k))
	}
	return p
}

func TestKWayRefineImprovesScatteredGrid(t *testing.T) {
	g := grid2D(12, 1)
	part := scatter(g.Len(), 4)
	before := EdgeCut(g, part)
	gain := refineKWay(g, part, nil, 4, nil, 0.05, 10, &refiner{})
	after := EdgeCut(g, part)
	if gain <= 0 {
		t.Fatalf("no gain on scattered grid (cut %d)", before)
	}
	if after >= before {
		t.Fatalf("cut did not improve: %d -> %d", before, after)
	}
	if after != before-gain {
		t.Fatalf("reported gain %d inconsistent with cut delta %d", gain, before-after)
	}
}

func TestKWayRefineKeepsBalance(t *testing.T) {
	g := grid2D(12, 1)
	part := scatter(g.Len(), 4)
	refineKWay(g, part, nil, 4, nil, 0.05, 10, &refiner{})
	if imb := Imbalance(g, part, 4, nil); imb > 0.06 {
		t.Fatalf("refinement broke balance: %v", imb)
	}
}

func TestKWayRefineRespectsFixed(t *testing.T) {
	g := grid2D(8, 1)
	part := scatter(g.Len(), 4)
	fixed := make([]int32, g.Len())
	for i := range fixed {
		fixed[i] = -1
	}
	fixed[0], part[0] = 2, 2
	fixed[10], part[10] = 3, 3
	refineKWay(g, part, fixed, 4, nil, 0.05, 10, &refiner{})
	if part[0] != 2 || part[10] != 3 {
		t.Fatalf("fixed vertices moved: %d, %d", part[0], part[10])
	}
}

func TestKWayRefineNoOpOnOptimal(t *testing.T) {
	// Two cliques, already separated: nothing to gain.
	g := twoClusters(8)
	part := make([]int32, g.Len())
	for v := 8; v < 16; v++ {
		part[v] = 1
	}
	if gain := refineKWay(g, part, nil, 2, nil, 0.05, 5, &refiner{}); gain != 0 {
		t.Fatalf("gained %d on an optimal partition", gain)
	}
}

func TestKWayRefineTrivialCases(t *testing.T) {
	g := grid2D(4, 1)
	part := make([]int32, g.Len())
	if refineKWay(g, part, nil, 1, nil, 0.05, 3, &refiner{}) != 0 {
		t.Fatal("k=1 refined something")
	}
	empty := NewGraph(0)
	if refineKWay(empty, nil, nil, 4, nil, 0.05, 3, &refiner{}) != 0 {
		t.Fatal("empty graph refined something")
	}
}

func TestKWayMappedReducesCommCost(t *testing.T) {
	g := grid2D(10, 1)
	arch := bullionArch()
	part := scatter(g.Len(), arch.Sockets())
	before := CommCost(g, part, arch.Dist)
	gain := refineKWayMapped(g, part, nil, arch, 0.10, 10, &refiner{})
	after := CommCost(g, part, arch.Dist)
	if gain <= 0 || after >= before {
		t.Fatalf("mapped refinement did not reduce comm cost: %d -> %d (gain %d)", before, after, gain)
	}
}

func TestDefaultOptionsEnableKWay(t *testing.T) {
	if !DefaultOptions(8).KWayRefine {
		t.Fatal("KWayRefine off by default")
	}
}

// Property: k-way refinement never increases the edge cut and never breaks
// the balance envelope it is given.
func TestPropertyKWayRefineMonotone(t *testing.T) {
	f := func(seed uint64, k8 uint8) bool {
		k := int(k8%6) + 2
		rng := xrand.New(seed)
		n := 40
		g := NewGraph(n)
		for v := 0; v < n; v++ {
			g.SetVertexWeight(v, int64(rng.Intn(5)+1))
		}
		for e := 0; e < 120; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddEdge(a, b, int64(rng.Intn(50)+1))
			}
		}
		part := make([]int32, n)
		for v := range part {
			part[v] = int32(rng.Intn(k))
		}
		before := EdgeCut(g, part)
		refineKWay(g, part, nil, k, nil, 0.30, 6, &refiner{})
		after := EdgeCut(g, part)
		if after > before {
			return false
		}
		for _, p := range part {
			if p < 0 || int(p) >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
