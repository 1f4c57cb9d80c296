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
// cache's builder — may allocate only what the graph itself keeps. Per task
// that is its label and region name, plus its share of the TDG's node
// arrays and adjacency chunks and of the snapshot — measured 2.373 allocs
// per task, 2.391 under -race (an early design made ~18). Trackers, the
// Task structs and their access lists, the merge scratch and the regions
// come from the pooled runtime; a map-based tracker, per-list adjacency
// allocation or heap-allocated tasks each add at least one per task.
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
	const limit = 2.4
	if perTask := testing.AllocsPerRun(10, build) / (layers * width); perTask > limit {
		t.Fatalf("build+snapshot allocates %.2f allocs per task in steady state, want <= %v", perTask, limit)
	} else {
		t.Logf("%.2f allocs per task", perTask)
	}
}

// TestStencilBuildSnapshotSteadyStateAllocs pins an app builder's side of
// the access-list contract: Submit copies each task's list into the
// runtime, so jacobi refills one list for all of its tasks instead of
// allocating a literal (and the appends of up to four neighbours) per task.
// One build+snapshot of small-scale jacobi (320 tasks) on a warmed
// prototype runtime measured 655 allocations, the bound; with a list per
// task it made 1593, and with fmt.Sprintf names 781. What remains is one
// string per label and region name, plus the snapshot's own arrays. Those
// names, and the prototype machine's resource names, are built with
// strconv, not fmt, whose printer cache is a sync.Pool that drops printers
// at random under -race, so the count is exact there too.
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
	const limit = 655
	if avg := testing.AllocsPerRun(10, build); avg > limit {
		t.Fatalf("jacobi build+snapshot allocates %.0f allocs/op in steady state, want <= %v", avg, limit)
	} else {
		t.Logf("%.0f allocs/op", avg)
	}
}

// TestInPlaceCellSteadyStateAllocs pins the single-use cell of an
// Experiment: building a random layered graph straight into a warmed
// pooled runtime, running, auditing and releasing it through runWith. The
// runtime keeps its graph storage from build to build (graph.DAG.Reset at
// Release) and copies every task's access list into its pooled access
// arena, so what a cell allocates per task is the generator's two label
// strings plus the run's fixed tail: measured 2.016 allocs per task, one
// allocation per cell under the bound. A runtime that allocates its
// graph's node arrays and adjacency chunks again on every build measured
// 2.115; heap-allocated tasks or per-list adjacency add a whole one per
// task. The count cannot see an access list kept per task — a generator's
// shared slab of lists costs well under 0.01 allocations per task — so the
// cell's bytes are bounded too: 20.4 per task (92.2 when each task kept its
// list), 34.4 under -race, whose runtime gives every short label a whole
// 16-byte slot.
func TestInPlaceCellSteadyStateAllocs(t *testing.T) {
	const layers, width = 16, 32
	spec := fmt.Sprintf("random-layered?layers=%d&width=%d&seed=5", layers, width)
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
	const limit = 2.018
	if perTask := testing.AllocsPerRun(10, cycle) / (layers * width); perTask > limit {
		t.Fatalf("in-place cell allocates %.3f allocs per task in steady state, want <= %v", perTask, limit)
	} else {
		t.Logf("%.3f allocs per task", perTask)
	}
	byteLimit := 20.5
	if raceEnabled {
		byteLimit = 34.5
	}
	if perTask := bytesPerRun(10, cycle) / (layers * width); perTask > byteLimit {
		t.Fatalf("in-place cell allocates %.1f bytes per task in steady state, want <= %v", perTask, byteLimit)
	} else {
		t.Logf("%.1f bytes per task", perTask)
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
