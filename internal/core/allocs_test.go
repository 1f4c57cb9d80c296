package core

import (
	"fmt"
	"runtime/debug"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/workload"
)

// TestPlainCellSteadyStateAllocs pins the machine-pool contract on top of
// the runtime pool: once the per-config pools are warm, a full audited cell
// through Runner.Run — acquire machine, install cached snapshot, simulate,
// audit, release both — must not rebuild the machine (engine arena, Net,
// resources, path tables: ~55 objects) or the runtime. What remains is the
// genuinely per-run tail: policy construction, the escaping Result slices
// and a handful of audit scratch — measured 11 allocs/op for a plain LAS
// cell (44 for RGP, whose partitioner interior the ROADMAP still names
// open). The bound leaves headroom over 11 but sits far below the ~55 a
// rebuilt machine would cost again, so a pool regression trips it.
func TestPlainCellSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector")
	}
	rn := NewRunner(0)
	cfg := Config{
		App:     "jacobi",
		Scale:   apps.Tiny,
		Policy:  "LAS",
		Machine: machine.TwoSocketXeon(),
		Runtime: rt.DefaultOptions(),
	}
	cycle := func() {
		if _, err := rn.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		cycle() // warm the snapshot cache and the machine/runtime pools
	}
	// Pools are sync.Pools; disable GC so a collection mid-measure cannot
	// drop a warmed machine and charge its full reconstruction to one run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const limit = 24
	if avg := testing.AllocsPerRun(20, cycle); avg > limit {
		t.Fatalf("plain cell allocates %.1f allocs/op in steady state, want <= %d", avg, limit)
	}
}

// TestBuildSnapshotSteadyStateAllocs pins cold task-graph construction:
// building a random layered graph through rt.Submit on a warmed pooled
// prototype runtime and snapshotting it — the experiment cache's
// buildSnapshot — may allocate only what the graph itself keeps. Per task
// that is its label and region name, plus its share of the TDG's node
// arrays and adjacency chunks, the snapshot and the generator's access
// chunks — measured 2.40 allocs per task (the parent design made ~18).
// Trackers, the Task structs, the merge scratch and the regions come from
// the pooled runtime; a map-based tracker, per-list adjacency allocation or
// heap-allocated tasks each add at least one per task.
func TestBuildSnapshotSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector")
	}
	const layers, width = 16, 32
	w, err := workload.New(fmt.Sprintf("random-layered?layers=%d&width=%d&seed=5", layers, width), apps.Paper)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.BullionS16()
	build := func() {
		if _, err := buildSnapshot(w, mc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		build() // grow the pooled prototype runtime
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const limit = 2.5
	if perTask := testing.AllocsPerRun(10, build) / (layers * width); perTask > limit {
		t.Fatalf("build+snapshot allocates %.2f allocs per task in steady state, want <= %v", perTask, limit)
	} else {
		t.Logf("%.2f allocs per task", perTask)
	}
}
