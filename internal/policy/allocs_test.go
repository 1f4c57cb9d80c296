package policy

import (
	"testing"

	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// prepareRT builds an un-run, windows-heavy runtime for Prepare benchmarks:
// Prepare only reads the submitted task graph, so one runtime serves every
// measured call.
func prepareRT(tb testing.TB, ws int) *rt.Runtime {
	m := machine.New(machine.BullionS16(), sim.NewEngine())
	r := rt.NewRuntime(m, NewRGPLAS(), rt.Options{WindowSize: ws, Seed: 1})
	buildStencilLike(r, 12, 6) // 144 + 864 = 1008 tasks
	return r
}

// TestRGPPrepareSteadyStateAllocs bounds the repartition-every-window
// Prepare pass. The pooled prepare-state (subgraph scratch, symmetrized
// graph, dense anchor/fixed buffers) removes the old per-window maps and
// slices, and the partitioner's pooled refiner removes MapOnto's per-level
// graphs and buffers. What remains is the per-call assign array and
// distance matrix plus MapOnto's fixed per-call count, about 20 per window
// (its result, the socket groups of each split, targets and weights:
// partition.TestMapOntoSteadyStateAllocs pins it).
func TestRGPPrepareSteadyStateAllocs(t *testing.T) {
	r := prepareRT(t, 64)
	run := func() {
		pol := rgpPrepareProbe.pol
		pol.windowsCut = 0
		pol.ready = false
		pol.Prepare(r)
	}
	rgpPrepareProbe.pol = NewRGPRepartition()
	for i := 0; i < 3; i++ {
		run() // warm the prepare pool and the partitioner scratch
	}
	// Measured 331 allocs for 16 windows. Reintroducing per-window maps or
	// fresh subgraph, level or try construction adds hundreds more and trips
	// the bound.
	const limit = 360
	if avg := testing.AllocsPerRun(10, run); avg > limit {
		t.Fatalf("RGP repartition Prepare allocates %.0f allocs/op, want <= %d", avg, limit)
	}
}

// rgpPrepareProbe keeps the measured policy out of the AllocsPerRun closure
// so the closure itself does not allocate.
var rgpPrepareProbe struct{ pol *RGP }

// BenchmarkRGPPrepare measures the window-partitioning pass on a
// windows-heavy stencil TDG: single-window RGP+LAS and the
// repartition-every-window ablation (16 windows of 64 tasks each).
func BenchmarkRGPPrepare(b *testing.B) {
	for _, mode := range []struct {
		name string
		mk   func() *RGP
	}{
		{"first-window", NewRGPLAS},
		{"repartition", NewRGPRepartition},
	} {
		b.Run(mode.name, func(b *testing.B) {
			r := prepareRT(b, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mode.mk().Prepare(r)
			}
		})
	}
}
