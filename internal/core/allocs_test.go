package core

import (
	"fmt"
	"runtime"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/workload"
)

// TestPlainCellSteadyStateAllocs pins the machine-pool contract on top of
// the runtime pool, cell by cell: once the snapshot is built and the pools
// are warm, a full audited cell through runWith — acquire machine, install
// the snapshot, simulate, audit, release both — must not rebuild the
// machine (engine arena, Net, resources, path tables: ~55 objects) or the
// runtime. What remains is the genuinely per-run tail: the escaping Result
// slices, plus for RGP+LAS the policy itself and its partition-latency
// timer. RGP+LAS partitions nothing here: its window plan is computed once
// per snapshot (rt.Runtime.Shared) by the warm-up and read by every later
// cycle; policy.TestRGPPrepareSteadyStateAllocs pins the partitioning pass
// itself. The rows are the small-scale Figure-1 grid (eight apps x four
// policies on the bullion) and the socket ablation (nstream under LAS and
// RGP+LAS on 2, 4 and 8 sockets). The bounds are 4 allocs for LAS, DFIFO
// and EP (measured 2) and 5 for RGP+LAS on every socket count (measured 4;
// 14, 20 and 34 on 2, 4 and 8 sockets when every cell partitioned its
// first window again), so a new per-cell allocation trips its row.
func TestPlainCellSteadyStateAllocs(t *testing.T) {
	type row struct {
		name, app, pol string
		mc             machine.Config
	}
	var rows []row
	for _, app := range apps.Names() {
		for _, pol := range []string{"LAS", "DFIFO", "RGP+LAS", "EP"} {
			rows = append(rows, row{"Figure1/" + app + "/" + pol, app, pol, machine.BullionS16()})
		}
	}
	for _, mc := range []machine.Config{machine.TwoSocketXeon(), machine.FourSocket(), machine.BullionS16()} {
		for _, pol := range []string{"LAS", "RGP+LAS"} {
			rows = append(rows, row{"AblationSockets/" + mc.Name + "/" + pol, "nstream", pol, mc})
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cfg := DefaultConfig(r.app, r.pol, apps.Small)
			cfg.Machine = r.mc
			w, err := workload.New(r.app, apps.Small)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := w.Snapshot(r.mc)
			if err != nil {
				t.Fatal(err)
			}
			cycle := func() {
				if _, err := runWith(cfg, nil, snap); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5; i++ {
				cycle() // warm the machine and runtime pools
			}
			limit := 4.0
			if r.pol == "RGP+LAS" {
				limit = 5
			}
			if avg := testing.AllocsPerRun(20, cycle); avg > limit {
				t.Fatalf("cell allocates %.0f allocs/op in steady state, want <= %v", avg, limit)
			} else {
				t.Logf("%.0f allocs/op", avg)
			}
		})
	}
}

// TestBuildSnapshotSteadyStateAllocs pins cold task-graph construction:
// building a random layered graph through rt.Submit on a warmed pooled
// prototype runtime and snapshotting it — Workload.Snapshot, the experiment
// pool's builder — may allocate only what the snapshot keeps and the
// prototype machine, which nothing recycles here: measured 0.314 allocs
// per task (161 per build of 512 tasks), also under -race. Labels and
// region names are copied into storage the graph, the memory manager and
// the snapshot own (2.287 when each was its own string; 2.373 when Snap
// also took the prototype's graph, so every build grew its node arrays and
// adjacency chunks again; an early design made ~18). Trackers, the TDG's
// build storage, the Task structs and their access lists, the merge
// scratch and the regions come from the pooled runtime; a map-based
// tracker, per-list adjacency allocation, heap-allocated tasks or a string
// per name each add at least one per task.
func TestBuildSnapshotSteadyStateAllocs(t *testing.T) {
	const layers, width = 16, 32
	w, err := workload.New(fmt.Sprintf("random-layered?layers=%d&width=%d&seed=5", layers, width), apps.Paper)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.BullionS16()
	build := func() {
		if _, err := w.Snapshot(mc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		build() // grow the pooled prototype runtime
	}
	const limit = 0.315
	if perTask := testing.AllocsPerRun(10, build) / (layers * width); perTask > limit {
		t.Fatalf("build+snapshot allocates %.4f allocs per task in steady state, want <= %v", perTask, limit)
	} else {
		t.Logf("%.4f allocs per task", perTask)
	}
}

// TestStencilBuildSnapshotSteadyStateAllocs pins an app builder's side of
// the borrowing contract: Submit copies each task's access list and label,
// and Alloc each region's name, into storage the runtime keeps, so jacobi
// refills one access list and one name buffer for all of its tasks. One
// build+snapshot of small-scale jacobi (320 tasks) on a warmed prototype
// runtime measured 174 allocations, the bound: the prototype machine and
// the snapshot's own arrays. It measured 613 with a string per label and
// region name, 655 when Snap also took the prototype's graph storage, 1593
// with an access list per task, and 781 with fmt.Sprintf names. The names
// are built with strconv, not fmt, whose printer cache is a sync.Pool that
// drops printers at random under -race, so the count is exact there too.
func TestStencilBuildSnapshotSteadyStateAllocs(t *testing.T) {
	w, err := workload.New("jacobi", apps.Small)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.BullionS16()
	build := func() {
		if _, err := w.Snapshot(mc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		build() // grow the pooled prototype runtime
	}
	const limit = 174
	if avg := testing.AllocsPerRun(10, build); avg > limit {
		t.Fatalf("jacobi build+snapshot allocates %.0f allocs/op in steady state, want <= %v", avg, limit)
	} else {
		t.Logf("%.0f allocs/op", avg)
	}
}

// TestInPlaceCellSteadyStateAllocs pins the single-use cell of an
// Experiment: building a random layered graph straight into a warmed
// pooled runtime, running, auditing and releasing it through runWith. The
// runtime keeps its graph storage, label bytes included, from build to
// build (graph.DAG.Reset at Release), its memory manager keeps the region
// names, and every task's access list is copied into its pooled access
// arena, so a cell allocates only its fixed tail: 8 allocations, for 512
// tasks and for 2048 alike, also under -race. A build that allocates per
// task again fails the larger row first: a string per label and region
// name made 2.016 per task, and a runtime that allocates its graph's node
// arrays and adjacency chunks on every build 2.115. The count cannot see an
// access list kept per task — a generator's shared slab of lists costs
// well under 0.01 allocations per task — so the cell's bytes are bounded
// too: measured 2.36 per task at 512 tasks and 0.97 at 2048 (the
// generator's per-build scratch, one entry per layer slot), the same under
// -race; 20.4 (34.4 under -race) with a string per name, and 92.2 when each
// task also kept its list.
func TestInPlaceCellSteadyStateAllocs(t *testing.T) {
	for _, row := range []struct {
		layers, width int
		bytesPerTask  float64
	}{
		{16, 32, 2.4},
		{32, 64, 1.0},
	} {
		spec := fmt.Sprintf("random-layered?layers=%d&width=%d&seed=5", row.layers, row.width)
		t.Run(spec, func(t *testing.T) {
			w, err := workload.New(spec, apps.Paper)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(spec, "LAS", apps.Paper)
			cycle := func() {
				if _, err := runWith(cfg, &w, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5; i++ {
				cycle() // warm the machine and runtime pools
			}
			const limit = 8
			if avg := testing.AllocsPerRun(10, cycle); avg > limit {
				t.Fatalf("in-place cell allocates %.1f allocs per cell in steady state, want <= %v", avg, limit)
			} else {
				t.Logf("%.1f allocs per cell", avg)
			}
			tasks := float64(row.layers * row.width)
			if perTask := bytesPerRun(10, cycle) / tasks; perTask > row.bytesPerTask {
				t.Fatalf("in-place cell allocates %.2f bytes per task in steady state, want <= %v", perTask, row.bytesPerTask)
			} else {
				t.Logf("%.2f bytes per task", perTask)
			}
		})
	}
}

// TestSharedGraphCycleSteadyStateAllocs pins the storage cycle of a graph
// an Experiment shares, on warmed pools: the experiment's pool is made, its
// first claimed cell builds and snapshots the graph (Workload.Snapshot),
// both cells install it, run, audit and release their runtimes (runWith),
// and the second one's release recycles the snapshot. The prototype runtime
// builds into the graph storage the runtime pool keeps, Snap copies the
// graph, labels and region names into the storage of the snapshot recycled
// by the cycle before, and both cells' runtimes come from the pool and copy
// the region names into their memory managers, so what a cycle may
// allocate is the fixed tails of the prototype machine, the pool and each
// cell: measured 0.281 allocations and 16.9 bytes per task (17.3 under
// -race). With a string per label and region name it measured 2.285 and
// 35.5 (49.9 under -race). A cycle that leaves its snapshot to the
// collector instead measured 2.307 and 382.1 then: the snapshot's storage
// is a few exactly sized arrays, so the bytes bound is what catches it.
func TestSharedGraphCycleSteadyStateAllocs(t *testing.T) {
	const layers, width = 16, 32
	spec := fmt.Sprintf("random-layered?layers=%d&width=%d&seed=5", layers, width)
	e := &Experiment{Apps: []string{spec}, Policies: []string{"LAS", "LAS"}, Scale: apps.Paper}
	grid, err := e.resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(spec, "LAS", apps.Paper)
	cycle := func() {
		p := newPool(grid.ps, grid.wls, 1, 1)
		for range 2 {
			j, _ := p.claim()
			if _, err := p.run(cfg, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		cycle() // warm the runtime, machine and snapshot pools
	}
	const limit = 0.286
	if perTask := testing.AllocsPerRun(10, cycle) / (layers * width); perTask > limit {
		t.Fatalf("shared graph cycle allocates %.4f allocs per task in steady state, want <= %v", perTask, limit)
	} else {
		t.Logf("%.4f allocs per task", perTask)
	}
	byteLimit := 17.6
	if raceEnabled {
		byteLimit = 18.0
	}
	if perTask := bytesPerRun(10, cycle) / (layers * width); perTask > byteLimit {
		t.Fatalf("shared graph cycle allocates %.2f bytes per task in steady state, want <= %v", perTask, byteLimit)
	} else {
		t.Logf("%.2f bytes per task", perTask)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// (runtime.MemStats.TotalAlloc) one call of f allocates, measured, after a
// warm-up call, over runs calls with GOMAXPROCS set to 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
