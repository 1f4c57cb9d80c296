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
	r := rt.NewRuntime(m, &RGP{Propagate: PropagateLAS}, rt.Options{WindowSize: ws, Seed: 1})
	buildStencilLike(r, 12, 6) // 144 + 864 = 1008 tasks
	return r
}

// TestRGPPrepareSteadyStateAllocs bounds the repartition-every-window
// Prepare pass on a runtime that built its own graph, where no snapshot
// keeps the plan, so every Prepare computes it (rt.Runtime.Shared's miss
// path). The pooled prepare-state (plan key, subgraph scratch, symmetrized
// graph, dense anchor/fixed buffers) removes the old per-window maps and
// slices, and the partitioner's pooled refiner removes MapOnto's per-level
// graphs and buffers. What remains is the plan with its assign array, the
// distance matrix and the latency timer, plus MapOnto's fixed per-call
// count, about 20 per window (its result, the socket groups of each split,
// targets and weights: partition.TestMapOntoSteadyStateAllocs pins it).
func TestRGPPrepareSteadyStateAllocs(t *testing.T) {
	r := prepareRT(t, 64)
	run := func() {
		pol := rgpPrepareProbe.pol
		pol.ready = false
		pol.Prepare(r)
	}
	rgpPrepareProbe.pol = &RGP{Propagate: PropagateRepartition}
	for i := 0; i < 3; i++ {
		run() // warm the prepare pool and the partitioner scratch
	}
	// Measured 316 allocs for 16 windows (331 when each window resolved and
	// heap-copied its own options). Reintroducing per-window maps or fresh
	// subgraph, level or try construction adds hundreds more and trips the
	// bound.
	const limit = 345
	if avg := testing.AllocsPerRun(10, run); avg > limit {
		t.Fatalf("RGP repartition Prepare allocates %.0f allocs/op, want <= %d", avg, limit)
	} else {
		t.Logf("%.0f allocs/op", avg)
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
		prop Propagation
	}{
		{"first-window", PropagateLAS},
		{"repartition", PropagateRepartition},
	} {
		b.Run(mode.name, func(b *testing.B) {
			r := prepareRT(b, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				(&RGP{Propagate: mode.prop}).Prepare(r)
			}
		})
	}
}

// TestNewSteadyStateAllocs pins what resolving a spec through the registry
// costs. Service mode resolves the job's policy spec once per job (fleet-16
// does it 12,000 times a round), so parsing and lookup must add nothing:
// a paramless policy is a shared value, an RGP spec allocates the fresh
// *RGP, and a parameterized one also pays for its parameter map, the split
// query and the Tune hook.
func TestNewSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		spec  string
		limit float64
	}{
		{"LAS", 0},
		{"DFIFO", 0},
		{"EP", 0},
		{"RGP+LAS", 1},
		{"RGP+LAS?matching=random", 6},
	} {
		newProbe = c.spec
		avg := testing.AllocsPerRun(100, func() {
			if _, err := New(newProbe); err != nil {
				panic(err)
			}
		})
		t.Logf("%s: %.0f allocs", c.spec, avg)
		if avg > c.limit {
			t.Errorf("New(%q) allocates %.0f, want <= %.0f", c.spec, avg, c.limit)
		}
	}
}

// newProbe keeps the measured spec out of the AllocsPerRun closure.
var newProbe string
