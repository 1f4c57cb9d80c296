package partition

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// Allocation-contract test for the FM refinement hot path, run as a
// blocking deterministic test (testing.AllocsPerRun, not a benchmark) by
// `make test-allocs` and the CI allocs gate: with a warmed refiner, a full
// fmRefine pass — gain buckets, bucket drains, boundary scans — must not
// allocate.
func TestFMRefineSteadyStateAllocs(t *testing.T) {
	const n = 2000
	g := benchGraph(n, 1)
	pristine := benchPart(n, 2)
	total := g.TotalVertexWeight()
	minW0, maxW0 := bisectEnvelope(total, 0.5, 0.05)
	rf := &refiner{}
	part := make([]int32, n)
	copy(part, pristine)
	fmRefine(g, part, nil, minW0, maxW0, 10, rf) // warm the scratch
	avg := testing.AllocsPerRun(20, func() {
		copy(part, pristine)
		fmRefine(g, part, nil, minW0, maxW0, 10, rf)
	})
	if avg != 0 {
		t.Fatalf("fmRefine allocates %v objects per op in steady state, want 0", avg)
	}
}

// TestMapOntoSteadyStateAllocs pins the whole partitioner's contract: with
// a warmed refiner pool, a MapOnto call allocates a fixed number of objects
// — the returned partition, the socket groups each split carves off, and the
// capacity targets and part weights behind the k-way pass and the stats —
// whatever the graph size or coarsening depth, with or without fixed
// vertices. Subgraphs, level stores, try buffers, vertex splits and pinned
// parts all come from the pooled refiner.
func TestMapOntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector")
	}
	// The refiner lives in a sync.Pool; disable GC so a collection
	// mid-measure cannot drop the warmed scratch.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	arch := bullionArch()
	want := -1.0
	for _, side := range []int{16, 64} { // 256 and 4096 vertices
		g := grid2D(side, 64)
		for _, pinned := range []bool{false, true} {
			opt := DefaultOptions(0)
			if pinned {
				opt.Fixed = make([]int32, g.Len())
				for v := range opt.Fixed {
					opt.Fixed[v] = int32(v%19) - 11 // every 19th vertex pinned to each socket
				}
			}
			// AllocsPerRun's own warm-up call grows the pooled scratch.
			avg := testing.AllocsPerRun(10, func() {
				if _, _, err := MapOnto(g, arch, opt); err != nil {
					panic(err)
				}
			})
			name := fmt.Sprintf("%d vertices, fixed=%v", g.Len(), pinned)
			t.Logf("%s: %v allocs/op", name, avg)
			if want < 0 {
				want = avg
			} else if avg != want {
				t.Errorf("%s: %v allocs/op, want %v as for the first graph", name, avg, want)
			}
		}
	}
	const limit = 19
	if want > limit {
		t.Fatalf("MapOnto allocates %v objects per op in steady state, want <= %d", want, limit)
	}
}
