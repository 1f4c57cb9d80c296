package partition

import (
	"math"
	"testing"
)

// NewUniformArch returns a flat architecture of n equidistant sockets.
func NewUniformArch(n int) *Arch {
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = 1
			}
		}
	}
	return &Arch{Dist: d}
}

// bullionArch mirrors machine.BullionS16's distance matrix without importing
// the machine package (keeps partition dependency-free).
func bullionArch() *Arch {
	const n = 8
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			switch {
			case i == j:
			case i/2 == j/2:
				d[i][j] = 1
			default:
				d[i][j] = 2
			}
		}
	}
	return &Arch{Dist: d}
}

func TestUniformArch(t *testing.T) {
	a := NewUniformArch(4)
	if a.Sockets() != 4 {
		t.Fatal("socket count")
	}
	if err := a.validate(); err != nil {
		t.Fatal(err)
	}
	if a.Dist[0][0] != 0 || a.Dist[0][3] != 1 {
		t.Fatal("distances wrong")
	}
}

func TestArchValidation(t *testing.T) {
	bad := []*Arch{
		{Dist: [][]int{}},
		{Dist: [][]int{{0, 1}}},
		{Dist: [][]int{{1}}},
		{Dist: [][]int{{0, 1}, {2, 0}}},
		{Dist: [][]int{{0, -1}, {-1, 0}}, Capacity: nil},
		{Dist: [][]int{{0, 1}, {1, 0}}, Capacity: []float64{1}},
		{Dist: NewUniformArch(4).Dist, Capacity: []float64{0, 0, 0, 0}},
		{Dist: [][]int{{0, 1}, {1, 0}}, Capacity: []float64{-1, 2}},
		{Dist: [][]int{{0, 1}, {1, 0}}, Capacity: []float64{math.NaN(), 1}},
		{Dist: [][]int{{0, 1}, {1, 0}}, Capacity: []float64{math.Inf(1), 1}},
		{Dist: [][]int{{0, 1}, {1, 0}}, Capacity: []float64{math.MaxFloat64, math.MaxFloat64}},
	}
	for i, a := range bad {
		if err := a.validate(); err == nil {
			t.Errorf("case %d: invalid arch accepted", i)
		}
	}
	// A zero capacity on some sockets stays valid.
	if err := (&Arch{Dist: [][]int{{0, 1}, {1, 0}}, Capacity: []float64{0, 1}}).validate(); err != nil {
		t.Errorf("partly zero capacities rejected: %v", err)
	}
}

func TestMapOntoCoversAllSockets(t *testing.T) {
	g := grid2D(16, 1)
	part, st, err := MapOnto(g, bullionArch(), DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]int)
	for _, p := range part {
		seen[p]++
	}
	if len(seen) != 8 {
		t.Fatalf("mapping used %d of 8 sockets", len(seen))
	}
	if st.Imbalance > 0.5 {
		t.Fatalf("mapping imbalance %v", st.Imbalance)
	}
}

func TestMappingPrefersCheapBoundaries(t *testing.T) {
	// Build 4 clusters in a chain: C0 -heavy- C1 -light- C2 -heavy- C3.
	// On a 2-module architecture (sockets {0,1} close, {2,3} close, modules
	// far), a good mapping puts the light cut across the far boundary:
	// {C0,C1} on one module and {C2,C3} on the other.
	const cs = 8
	g := NewGraph(4 * cs)
	for c := 0; c < 4; c++ {
		for i := 0; i < cs; i++ {
			v := c*cs + i
			g.SetVertexWeight(v, 1)
			for j := i + 1; j < cs; j++ {
				g.AddEdge(v, c*cs+j, 50)
			}
		}
	}
	g.AddEdge(0*cs, 1*cs, 40) // heavy C0-C1
	g.AddEdge(1*cs, 2*cs, 1)  // light C1-C2
	g.AddEdge(2*cs, 3*cs, 40) // heavy C2-C3

	arch := &Arch{Dist: [][]int{
		{0, 1, 4, 4},
		{1, 0, 4, 4},
		{4, 4, 0, 1},
		{4, 4, 1, 0},
	}}
	opt := DefaultOptions(0)
	part, _, err := MapOnto(g, arch, opt)
	if err != nil {
		t.Fatal(err)
	}
	// C0 and C1 must land on the same module; likewise C2 and C3.
	module := func(p int32) int { return int(p) / 2 }
	if module(part[0]) != module(part[cs]) {
		t.Errorf("heavy C0-C1 cut across modules: parts %d,%d", part[0], part[cs])
	}
	if module(part[2*cs]) != module(part[3*cs]) {
		t.Errorf("heavy C2-C3 cut across modules: parts %d,%d", part[2*cs], part[3*cs])
	}
	if module(part[0]) == module(part[2*cs]) {
		t.Errorf("all clusters on one module")
	}
	// The mapping objective must beat a deliberately bad assignment.
	badPart := make([]int32, len(part))
	for v := range badPart {
		badPart[v] = int32(v % 4) // scatter
	}
	if CommCost(g, part, arch.Dist) >= CommCost(g, badPart, arch.Dist) {
		t.Errorf("mapping comm cost %d not better than scatter %d",
			CommCost(g, part, arch.Dist), CommCost(g, badPart, arch.Dist))
	}
}

func TestMapOntoWithCapacity(t *testing.T) {
	g := grid2D(12, 1)
	arch := &Arch{
		Dist:     [][]int{{0, 1}, {1, 0}},
		Capacity: []float64{3, 1},
	}
	part, _, err := MapOnto(g, arch, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	w := PartWeights(g, part, 2)
	share0 := float64(w[0]) / float64(g.TotalVertexWeight())
	if share0 < 0.6 || share0 > 0.9 {
		t.Fatalf("capacity-weighted share0 = %.3f, want ~0.75", share0)
	}
}

func TestMapOntoSingleSocket(t *testing.T) {
	g := grid2D(4, 1)
	part, st, err := MapOnto(g, NewUniformArch(1), DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("single-socket mapping strayed")
		}
	}
	if st.EdgeCut != 0 {
		t.Fatal("single-socket cut non-zero")
	}
}

func TestMapOntoDeterministic(t *testing.T) {
	g := grid2D(10, 2)
	opt := DefaultOptions(0)
	opt.Seed = 7
	a, _, _ := MapOnto(g, bullionArch(), opt)
	b, _, _ := MapOnto(g, bullionArch(), opt)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("mapping not deterministic")
		}
	}
}

func TestSplitSocketsBullion(t *testing.T) {
	arch := bullionArch()
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s0, s1 := splitSockets(all, arch)
	if len(s0) != 4 || len(s1) != 4 {
		t.Fatalf("split sizes %d/%d", len(s0), len(s1))
	}
	// Each half must keep whole modules together when possible: check that
	// the split separates socket 0's module from the most distant module.
	in0 := map[int]bool{}
	for _, s := range s0 {
		in0[s] = true
	}
	if in0[0] != in0[1] {
		t.Errorf("module {0,1} split across halves: %v | %v", s0, s1)
	}
}

func TestMapOntoRespectsFixed(t *testing.T) {
	g := grid2D(8, 1)
	opt := DefaultOptions(0)
	opt.Fixed = make([]int32, g.Len())
	for i := range opt.Fixed {
		opt.Fixed[i] = -1
	}
	opt.Fixed[5] = 6
	part, _, err := MapOnto(g, bullionArch(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if part[5] != 6 {
		t.Fatalf("fixed vertex mapped to %d, want 6", part[5])
	}
}

// TestMapOntoScratchReuseIsInert maps a graph, then a larger one with fixed
// vertices (deeper hierarchy, pinned levels), then the first graph again,
// all on one refiner: both results for the first graph must equal a fresh
// refiner's, so per-depth level stores, try buffers and split scratch left
// by a deeper hierarchy cannot leak into a shallower one.
func TestMapOntoScratchReuseIsInert(t *testing.T) {
	a := grid2D(12, 3)
	b := benchGraph(3000, 9)
	optA := DefaultOptions(0)
	optA.Seed = 5
	optB := DefaultOptions(0)
	optB.Fixed = make([]int32, b.Len())
	for v := range optB.Fixed {
		optB.Fixed[v] = -1
		if v%5 == 0 {
			optB.Fixed[v] = int32(v/5) % 8 // every fifth vertex pinned, all sockets
		}
	}
	want, wantSt, err := mapOnto(a, bullionArch(), optA, &refiner{})
	if err != nil {
		t.Fatal(err)
	}
	rf := &refiner{}
	for _, step := range []struct {
		g   *Graph
		opt Options
	}{{a, optA}, {b, optB}, {a, optA}} {
		got, st, err := mapOnto(step.g, bullionArch(), step.opt, rf)
		if err != nil {
			t.Fatal(err)
		}
		if step.g != a {
			continue
		}
		if st != wantSt {
			t.Fatalf("reused refiner: stats %+v, fresh %+v", st, wantSt)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("reused refiner mapped vertex %d to %d, fresh refiner to %d", v, got[v], want[v])
			}
		}
	}
}

func BenchmarkMapOntoBullion(b *testing.B) {
	g := grid2D(32, 64)
	opt := DefaultOptions(0)
	arch := bullionArch()
	if _, _, err := MapOnto(g, arch, opt); err != nil { // warm the refiner pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = uint64(i + 1)
		if _, _, err := MapOnto(g, arch, opt); err != nil {
			b.Fatal(err)
		}
	}
}
