package partition

// Heap-vs-bucket equivalence harness: random weighted graphs with varying
// size, degree skew, weight range and fixed-vertex sets are refined by both
// the gain-bucket fmRefine and the reference fmRefineHeap, and the two must
// produce identical move sequences and final partitions. This is the
// property that lets partitioner rewrites ship without regenerating the
// determinism goldens.

import (
	"fmt"
	"testing"

	"numadag/internal/xrand"
)

// refineCase is one randomized fmRefine input.
type refineCase struct {
	g      *Graph
	part   []int32
	fixed  []int32
	minW0  int64
	maxW0  int64
	passes int
}

// weight styles exercised by the random cases: the equivalence proof must
// hold for unit weights (dense gain collisions), byte-scale weights with a
// common factor (the simulator's tile traffic), and arbitrary weights
// (quantized buckets hold many distinct gains).
const (
	unitWeights = iota
	byteWeights
	mixedWeights
	numWeightStyles
)

// buildRefineCase derives a complete fmRefine input from a seed and shape
// knobs. Shared by the equivalence test and FuzzFMRefine so fuzzing explores
// the same space the fixed test samples.
func buildRefineCase(seed, nRaw, degRaw, style, fracPct, tolPct, fixedPct, passesRaw uint64) refineCase {
	rng := xrand.New(seed)
	n := 2 + int(nRaw%400)
	deg := 1 + int(degRaw%8)
	style %= numWeightStyles
	frac := 0.25 + float64(fracPct%51)/100 // side-0 target in [0.25, 0.75]
	tol := 0.01 + float64(tolPct%30)/100   // imbalance in [0.01, 0.30]
	fixedFrac := float64(fixedPct%40) / 100
	passes := 1 + int(passesRaw%10)

	weight := func() int64 {
		switch style {
		case unitWeights:
			return 1
		case byteWeights:
			return int64(1+rng.Intn(8)) << 16 // 64KiB..512KiB tiles
		default:
			return 1 + int64(rng.Intn(1_000_000))
		}
	}
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		g.SetVertexWeight(v, weight())
	}
	for v := 0; v < n; v++ {
		// Degree skew: a few hub vertices draw extra edges.
		d := 1 + rng.Intn(deg)
		if rng.Intn(8) == 0 {
			d += rng.Intn(3 * deg)
		}
		for e := 0; e < d; e++ {
			u := rng.Intn(n)
			if u != v {
				g.AddEdge(v, u, weight())
			}
		}
	}
	part := make([]int32, n)
	for v := range part {
		if rng.Float64() < frac {
			part[v] = 0
		} else {
			part[v] = 1
		}
	}
	var fixed []int32
	if fixedFrac > 0 {
		fixed = make([]int32, n)
		for v := range fixed {
			if rng.Float64() < fixedFrac {
				fixed[v] = part[v]
			} else {
				fixed[v] = -1
			}
		}
	}
	minW0, maxW0 := bisectEnvelope(g.TotalVertexWeight(), frac, tol)
	return refineCase{g: g, part: part, fixed: fixed, minW0: minW0, maxW0: maxW0, passes: passes}
}

// runBothRefiners executes the bucket and heap refiners on copies of the
// case and returns (bucketPart, heapPart, bucketMoves, heapMoves).
func runBothRefiners(c refineCase) ([]int32, []int32, []fmMove, []fmMove) {
	bucketPart := append([]int32(nil), c.part...)
	heapPart := append([]int32(nil), c.part...)
	var bucketMoves, heapMoves []fmMove
	rf := &refiner{onMove: func(v int, from int32) {
		bucketMoves = append(bucketMoves, fmMove{v: int32(v), from: from})
	}}
	fmRefine(c.g, bucketPart, c.fixed, c.minW0, c.maxW0, c.passes, rf)
	fmRefineHeap(c.g, heapPart, c.fixed, c.minW0, c.maxW0, c.passes, func(v int, from int32) {
		heapMoves = append(heapMoves, fmMove{v: int32(v), from: from})
	})
	return bucketPart, heapPart, bucketMoves, heapMoves
}

func checkEquivalence(t *testing.T, c refineCase) {
	t.Helper()
	bucketPart, heapPart, bucketMoves, heapMoves := runBothRefiners(c)
	if len(bucketMoves) != len(heapMoves) {
		t.Fatalf("move sequence lengths differ: bucket %d, heap %d", len(bucketMoves), len(heapMoves))
	}
	for i := range bucketMoves {
		if bucketMoves[i] != heapMoves[i] {
			t.Fatalf("move %d differs: bucket %+v, heap %+v", i, bucketMoves[i], heapMoves[i])
		}
	}
	for v := range bucketPart {
		if bucketPart[v] != heapPart[v] {
			t.Fatalf("final partition differs at vertex %d: bucket %d, heap %d", v, bucketPart[v], heapPart[v])
		}
	}
}

// TestFMRefineMatchesHeapReference replays ~50 randomized cases spanning
// every weight style, degree skews, and fixed-vertex densities.
func TestFMRefineMatchesHeapReference(t *testing.T) {
	for i := uint64(0); i < 51; i++ {
		i := i
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			c := buildRefineCase(1000+i, 13*i, i, i, 7*i, 11*i, 5*i, i)
			checkEquivalence(t, c)
		})
	}
}

// TestFMRefineScratchReuseIsInert reruns one case through a refiner already
// warmed by larger and smaller cases: shared scratch must never leak state
// between calls.
func TestFMRefineScratchReuseIsInert(t *testing.T) {
	c := buildRefineCase(42, 120, 3, mixedWeights, 25, 10, 10, 4)
	fresh := append([]int32(nil), c.part...)
	fmRefine(c.g, fresh, c.fixed, c.minW0, c.maxW0, c.passes, &refiner{})

	rf := &refiner{}
	for _, warm := range []refineCase{
		buildRefineCase(7, 399, 7, byteWeights, 0, 0, 20, 9),
		buildRefineCase(8, 3, 1, unitWeights, 50, 29, 0, 1),
	} {
		p := append([]int32(nil), warm.part...)
		fmRefine(warm.g, p, warm.fixed, warm.minW0, warm.maxW0, warm.passes, rf)
	}
	reused := append([]int32(nil), c.part...)
	fmRefine(c.g, reused, c.fixed, c.minW0, c.maxW0, c.passes, rf)
	for v := range fresh {
		if fresh[v] != reused[v] {
			t.Fatalf("warm scratch changed the result at vertex %d", v)
		}
	}
}
