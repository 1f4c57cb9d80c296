package policy

import (
	"reflect"
	"strings"
	"testing"

	"numadag/internal/machine"
	"numadag/internal/partition"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// planVariant is one RGP configuration whose window plan the tests compare:
// a policy spec, a window size and a machine.
type planVariant struct {
	name   string
	spec   string
	window int
	mc     machine.Config
}

var planVariants = []planVariant{
	{"RGP+LAS", "RGP+LAS", 64, machine.BullionS16()},
	{"RGP", "RGP", 64, machine.BullionS16()},
	{"window-32", "RGP+LAS", 32, machine.BullionS16()},
	{"matching=random", "RGP+LAS?matching=random", 64, machine.BullionS16()},
	{"refine=off", "RGP+LAS?refine=off", 64, machine.BullionS16()},
	{"xeon-2x8", "RGP+LAS", 64, machine.TwoSocketXeon()},
}

// planStencil is the graph the plan tests partition: 100 + 400 tasks, so a
// 64-task window gives RGP eight windows.
func planStencil(r *rt.Runtime) { buildStencilLike(r, 10, 4) }

// runPlan runs v's policy on a runtime over v's machine, seeded with seed,
// whose graph is installed from snap, or built in place when snap is nil,
// and returns the policy.
func runPlan(t *testing.T, v planVariant, snap *rt.Snapshot, seed uint64) *RGP {
	t.Helper()
	pol, err := New(v.spec)
	if err != nil {
		t.Fatal(err)
	}
	rgp := pol.(*RGP)
	r := rt.NewRuntime(machine.New(v.mc, sim.NewEngine()), rgp,
		rt.Options{WindowSize: v.window, Seed: seed, PartitionCostPerTask: 10})
	if snap != nil {
		snap.Install(r)
	} else {
		planStencil(r)
	}
	r.Run()
	if err := r.AuditSchedule(); err != nil {
		t.Fatal(err)
	}
	r.Release()
	return rgp
}

// planSnapshot snapshots planStencil's graph.
func planSnapshot(t *testing.T) *rt.Snapshot {
	t.Helper()
	proto := rt.NewRuntime(machine.New(machine.BullionS16(), sim.NewEngine()), LAS{}, rt.Options{})
	planStencil(proto)
	snap, err := rt.Snap(proto)
	if err != nil {
		t.Fatal(err)
	}
	proto.Release()
	return snap
}

// TestRGPPlanSharedMatchesInPlace pins that sharing changes no placement:
// every run of one snapshot receives one plan, read-only, and it equals
// the plan a run computes on the same graph built in place, at any runtime
// seed.
func TestRGPPlanSharedMatchesInPlace(t *testing.T) {
	snap := planSnapshot(t)
	for _, v := range planVariants {
		t.Run(v.name, func(t *testing.T) {
			fresh := runPlan(t, v, nil, 1).plan
			first := runPlan(t, v, snap, 1).plan
			again := runPlan(t, v, snap, 1001).plan
			if first != again {
				t.Fatal("two runs of one snapshot received different plans")
			}
			if !reflect.DeepEqual(first, fresh) {
				t.Fatalf("shared plan (%d windows) differs from a fresh Prepare on the graph built in place (%d windows)",
					first.windows, fresh.windows)
			}
			if other := runPlan(t, v, nil, 2001).plan; !reflect.DeepEqual(other, fresh) {
				t.Fatal("the plan moved with the runtime seed")
			}
			want := 1
			if v.spec == "RGP" {
				want = 8
			}
			if first.windows != want {
				t.Fatalf("plan partitioned %d windows, want %d", first.windows, want)
			}
		})
	}
}

// TestRGPPlanKeyCoversInputs pins the plan key: the propagation mode, the
// window size, the partitioner options a spec resolves and the machine's
// hop matrix each select a plan of their own on one snapshot, so no run
// receives a plan computed for other inputs.
func TestRGPPlanKeyCoversInputs(t *testing.T) {
	snap := planSnapshot(t)
	plans := map[*rgpPlan]string{}
	for _, v := range planVariants {
		p := runPlan(t, v, snap, 1).plan
		if prev, ok := plans[p]; ok {
			t.Fatalf("%s received the plan of %s", v.name, prev)
		}
		plans[p] = v.name
	}
}

// TestRGPPlanPanicReachesEveryRun pins the failed-plan contract: a Tune
// that breaks the partitioner options (API misuse by a Go caller) makes
// the window partition panic, and every run of the snapshot that asks for
// that plan panics with it, not only the run that computed it, so none
// places tasks from a nil plan.
func TestRGPPlanPanicReachesEveryRun(t *testing.T) {
	snap := planSnapshot(t)
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "policy: window 0 partition failed") {
					t.Fatalf("run %d recovered %q, want the window 0 partition panic", i, msg)
				}
			}()
			pol := &RGP{Tune: func(o *partition.Options) { o.Tries = 0 }}
			r := rt.NewRuntime(machine.New(machine.BullionS16(), sim.NewEngine()), pol, rt.Options{WindowSize: 64})
			snap.Install(r)
			r.Run()
		}()
	}
}
