package core

import (
	"fmt"
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
// runtime. What remains is the genuinely per-run tail: policy construction,
// the escaping Result slices and a handful of audit scratch, plus RGP's
// partitioner interior, which grows with the socket count. The rows are the
// small-scale Figure-1 grid (eight apps x four policies on the bullion) and
// the socket ablation (nstream under LAS and RGP+LAS on 2, 4 and 8
// sockets). The bounds, 4 allocs for LAS, DFIFO and EP and 16, 22 and 36
// for RGP+LAS on 2, 4 and 8 sockets, sit one allocation above each row's
// measured count, so a new per-cell allocation trips its row.
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
	rgpLimit := map[int]float64{2: 16, 4: 22, 8: 36}
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
				if _, err := runWith(cfg, snap); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5; i++ {
				cycle() // warm the machine and runtime pools
			}
			limit := 4.0
			if r.pol == "RGP+LAS" {
				limit = rgpLimit[r.mc.Sockets]
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
// arrays and adjacency chunks, the snapshot and the generator's access
// chunks — measured 2.40 allocs per task (the parent design made ~18).
// Trackers, the Task structs, the merge scratch and the regions come from
// the pooled runtime; a map-based tracker, per-list adjacency allocation or
// heap-allocated tasks each add at least one per task.
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
	const limit = 2.5
	if perTask := testing.AllocsPerRun(10, build) / (layers * width); perTask > limit {
		t.Fatalf("build+snapshot allocates %.2f allocs per task in steady state, want <= %v", perTask, limit)
	} else {
		t.Logf("%.2f allocs per task", perTask)
	}
}
