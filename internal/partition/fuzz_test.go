package partition

// FuzzFMRefine drives the gain-bucket refiner over random weighted graphs
// and random balance envelopes (via buildRefineCase, shared with the fixed
// equivalence suite) and asserts the post-refine invariants:
//
//   - the cut is never worse than the input's,
//   - side 0's weight stays inside [minW0, maxW0] whenever the input was
//     feasible,
//   - fixed vertices never move,
//   - part stays within {0,1},
//
// plus full move-sequence equivalence with the reference heap refiner. The
// seed corpus in testdata/fuzz/FuzzFMRefine pins the shapes that matter
// (unit/byte/mixed weights, hub skew, dense fixed sets, tight envelopes)
// and runs as plain unit tests in normal `go test` invocations; the
// `make fuzz-smoke` target runs a short coverage-guided session on top.

import (
	"testing"
)

func FuzzFMRefine(f *testing.F) {
	f.Add(uint64(1), uint64(64), uint64(2), uint64(0), uint64(25), uint64(5), uint64(0), uint64(10))
	f.Add(uint64(2), uint64(399), uint64(7), uint64(1), uint64(0), uint64(0), uint64(30), uint64(3))
	f.Add(uint64(3), uint64(7), uint64(1), uint64(2), uint64(50), uint64(29), uint64(39), uint64(1))
	f.Fuzz(func(t *testing.T, seed, nRaw, degRaw, style, fracPct, tolPct, fixedPct, passes uint64) {
		c := buildRefineCase(seed, nRaw, degRaw, style, fracPct, tolPct, fixedPct, passes)
		n := c.g.Len()
		before := append([]int32(nil), c.part...)
		cutBefore := EdgeCut(c.g, before)
		var w0Before int64
		for v, p := range before {
			if p == 0 {
				w0Before += c.g.VertexWeight(v)
			}
		}
		feasible := w0Before >= c.minW0 && w0Before <= c.maxW0

		part := append([]int32(nil), c.part...)
		fmRefine(c.g, part, c.fixed, c.minW0, c.maxW0, c.passes, &refiner{})

		var w0 int64
		for v := 0; v < n; v++ {
			if part[v] != 0 && part[v] != 1 {
				t.Fatalf("vertex %d assigned part %d, want 0 or 1", v, part[v])
			}
			if c.fixed != nil && c.fixed[v] >= 0 && part[v] != before[v] {
				t.Fatalf("fixed vertex %d moved from %d to %d", v, before[v], part[v])
			}
			if part[v] == 0 {
				w0 += c.g.VertexWeight(v)
			}
		}
		if cutAfter := EdgeCut(c.g, part); cutAfter > cutBefore {
			t.Fatalf("refinement worsened the cut: %d -> %d", cutBefore, cutAfter)
		}
		if feasible && (w0 < c.minW0 || w0 > c.maxW0) {
			t.Fatalf("feasible input left the balance envelope: w0 %d not in [%d, %d]", w0, c.minW0, c.maxW0)
		}
		checkEquivalence(t, c)
	})
}

// FuzzCoarsen replays whole coarsening descents of the same random graphs
// (buildRefineCase) through coarsen and the AddEdge reference
// (coarsen_reference_test.go), with either matching, and demands identical
// maps, weights, pins and adjacency order at every depth. Its seed corpus in
// testdata/fuzz/FuzzCoarsen covers the same weight styles, hub skew and
// fixed-set densities as FuzzFMRefine's.
func FuzzCoarsen(f *testing.F) {
	f.Add(uint64(1), uint64(64), uint64(2), uint64(0), uint64(0), uint64(0), uint64(1))
	f.Add(uint64(2), uint64(399), uint64(7), uint64(1), uint64(30), uint64(1), uint64(5))
	f.Fuzz(func(t *testing.T, seed, nRaw, degRaw, style, fixedPct, kind, matchSeed uint64) {
		c := buildRefineCase(seed, nRaw, degRaw, style, 0, 0, fixedPct, 0)
		checkCoarsenDescent(t, c, MatchingKind(kind%2), matchSeed, &refiner{})
	})
}
