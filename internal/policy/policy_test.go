package policy

import (
	"testing"

	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

func newRT(t *testing.T, pol rt.Policy, opts rt.Options) *rt.Runtime {
	t.Helper()
	m := machine.New(machine.BullionS16(), sim.NewEngine())
	return rt.NewRuntime(m, pol, opts)
}

func TestDFIFOCyclesOverCores(t *testing.T) {
	r := newRT(t, DFIFO{}, rt.Options{})
	for i := 0; i < 32; i++ {
		reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
		r.Submit(rt.TaskSpec{Label: "t", Flops: 1e6,
			Accesses: []rt.Access{{Region: reg, Mode: rt.Out}}, EPSocket: rt.NoEPHint})
	}
	r.Run()
	cores := map[int]int{}
	for _, task := range r.Tasks() {
		cores[task.Core]++
	}
	if len(cores) != 32 {
		t.Fatalf("DFIFO used %d distinct cores for 32 tasks, want 32", len(cores))
	}
}

func TestLASFollowsData(t *testing.T) {
	r := newRT(t, LAS{}, rt.Options{Seed: 7})
	data := r.Mem().Alloc("data", 1<<20, memory.Home, 5) // pre-homed on socket 5
	out := r.Mem().Alloc("out", 64, memory.Deferred, 0)
	tk := r.Submit(rt.TaskSpec{Label: "reader", Flops: 100,
		Accesses: []rt.Access{{Region: data, Mode: rt.In}, {Region: out, Mode: rt.Out}},
		EPSocket: rt.NoEPHint})
	r.Run()
	if tk.Socket != 5 {
		t.Fatalf("LAS placed reader on socket %d, want 5 (where the data is)", tk.Socket)
	}
}

func TestLASRandomWhenUnallocated(t *testing.T) {
	// With everything deferred, placements must spread over sockets
	// (statistically) rather than collapse to one.
	seen := map[int]bool{}
	for seed := uint64(1); seed <= 16; seed++ {
		r := newRT(t, LAS{}, rt.Options{Seed: seed, Steal: false})
		reg := r.Mem().Alloc("x", 4096, memory.Deferred, 0)
		tk := r.Submit(rt.TaskSpec{Label: "t", Flops: 100,
			Accesses: []rt.Access{{Region: reg, Mode: rt.Out}}, EPSocket: rt.NoEPHint})
		r.Run()
		seen[tk.Socket] = true
	}
	if len(seen) < 4 {
		t.Fatalf("LAS random placement hit only %d sockets over 16 seeds", len(seen))
	}
}

func TestLASDeterministicGivenSeed(t *testing.T) {
	run := func() []int {
		r := newRT(t, LAS{}, rt.Options{Seed: 99})
		var out []int
		regs := make([]*memory.Region, 8)
		for i := range regs {
			regs[i] = r.Mem().Alloc("x", 64<<10, memory.Deferred, 0)
		}
		for i := 0; i < 32; i++ {
			r.Submit(rt.TaskSpec{Label: "t", Flops: 1000,
				Accesses: []rt.Access{{Region: regs[i%8], Mode: rt.InOut}}, EPSocket: rt.NoEPHint})
		}
		r.Run()
		for _, task := range r.Tasks() {
			out = append(out, task.Socket)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("LAS placement differs at task %d with same seed", i)
		}
	}
}

func TestEPHonorsHints(t *testing.T) {
	r := newRT(t, EP{}, rt.Options{Steal: false})
	reg := r.Mem().Alloc("x", 4096, memory.Deferred, 0)
	tk := r.Submit(rt.TaskSpec{Label: "t", Flops: 100,
		Accesses: []rt.Access{{Region: reg, Mode: rt.Out}}, EPSocket: 6})
	r.Run()
	if tk.Socket != 6 {
		t.Fatalf("EP ran task on socket %d, want hinted 6", tk.Socket)
	}
}

func TestEPFallsBackToLASWithoutHint(t *testing.T) {
	r := newRT(t, EP{}, rt.Options{Steal: false})
	data := r.Mem().Alloc("data", 1<<20, memory.Home, 3)
	tk := r.Submit(rt.TaskSpec{Label: "t", Flops: 100,
		Accesses: []rt.Access{{Region: data, Mode: rt.In}}, EPSocket: rt.NoEPHint})
	r.Run()
	if tk.Socket != 3 {
		t.Fatalf("EP fallback placed task on socket %d, want 3", tk.Socket)
	}
}

func TestEPVetoesStealing(t *testing.T) {
	var _ rt.StealVeto = EP{}
	if !(EP{}).VetoSteal() {
		t.Fatal("EP must veto stealing")
	}
	// End to end: pile tasks on socket 0 with stealing enabled; no steals.
	r := newRT(t, EP{}, rt.Options{Steal: true, StealThreshold: 1})
	for i := 0; i < 64; i++ {
		reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
		r.Submit(rt.TaskSpec{Label: "t", Flops: 1e5,
			Accesses: []rt.Access{{Region: reg, Mode: rt.Out}}, EPSocket: 0})
	}
	res := r.Run()
	if res.Steals != 0 {
		t.Fatalf("EP suffered %d steals", res.Steals)
	}
	if res.SocketTasks[0] != 64 {
		t.Fatalf("EP tasks leaked off socket 0: %v", res.SocketTasks)
	}
}

// buildStencilLike submits a small 2D stencil DAG.
func buildStencilLike(r *rt.Runtime, nb, iters int) {
	grid := make([][]*memory.Region, nb)
	for i := range grid {
		grid[i] = make([]*memory.Region, nb)
		for j := range grid[i] {
			grid[i][j] = r.Mem().Alloc("u", 64<<10, memory.Deferred, 0)
		}
	}
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			r.Submit(rt.TaskSpec{Label: "init", Flops: 1000,
				Accesses: []rt.Access{{Region: grid[i][j], Mode: rt.Out}}, EPSocket: rt.NoEPHint})
		}
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				acc := []rt.Access{{Region: grid[i][j], Mode: rt.InOut}}
				if i > 0 {
					acc = append(acc, rt.Access{Region: grid[i-1][j], Mode: rt.In})
				}
				if j > 0 {
					acc = append(acc, rt.Access{Region: grid[i][j-1], Mode: rt.In})
				}
				r.Submit(rt.TaskSpec{Label: "st", Flops: 30000, Accesses: acc, EPSocket: rt.NoEPHint})
			}
		}
	}
}

func TestRGPAssignsFirstWindowBySocket(t *testing.T) {
	pol := &RGP{Propagate: PropagateLAS}
	r := newRT(t, pol, rt.Options{WindowSize: 64, Seed: 1, PartitionCostPerTask: 10})
	buildStencilLike(r, 8, 4)
	res := r.Run()
	if pol.WindowsPartitioned() != 1 {
		t.Fatalf("RGP+LAS partitioned %d windows, want 1", pol.WindowsPartitioned())
	}
	// The first window's tasks were deferred until the partition was ready.
	if res.Deferred == 0 {
		t.Fatal("no tasks passed through the temporary queue")
	}
	// First-window tasks must spread across several sockets (balanced
	// partition), not collapse onto one.
	used := map[int]bool{}
	for _, task := range r.Tasks()[:64] {
		used[task.Socket] = true
	}
	if len(used) < 4 {
		t.Fatalf("window 0 used only %d sockets", len(used))
	}
}

func TestRGPDeferredUntilPartitionCost(t *testing.T) {
	pol := &RGP{Propagate: PropagateLAS}
	const costPer = 100
	r := newRT(t, pol, rt.Options{WindowSize: 32, Seed: 1, PartitionCostPerTask: costPer})
	buildStencilLike(r, 8, 1)
	r.Run()
	windowCost := sim.Time(costPer * 32)
	for _, task := range r.Tasks()[:32] {
		if task.StartAt < windowCost {
			t.Fatalf("window-0 task started at %v, before partition completed at %v",
				task.StartAt, windowCost)
		}
	}
}

func TestRGPRepartitionCoversAllWindows(t *testing.T) {
	pol := &RGP{Propagate: PropagateRepartition}
	r := newRT(t, pol, rt.Options{WindowSize: 50, Seed: 1})
	buildStencilLike(r, 8, 3) // 64 + 192 = 256 tasks -> 6 windows
	r.Run()
	if got, want := pol.WindowsPartitioned(), r.Windows(); got != want {
		t.Fatalf("repartition covered %d of %d windows", got, want)
	}
}

func TestRGPBeatsLASOnStencil(t *testing.T) {
	// The headline claim, on a micro stencil: RGP+LAS must not lose badly
	// to LAS, and should usually win. Use a few seeds and compare means.
	mean := func(mk func() rt.Policy) float64 {
		var sum float64
		for seed := uint64(1); seed <= 3; seed++ {
			r := newRT(t, mk(), rt.Options{WindowSize: 256, Seed: seed, Steal: true, StealThreshold: 2})
			buildStencilLike(r, 10, 6)
			sum += float64(r.Run().Makespan)
		}
		return sum / 3
	}
	las := mean(func() rt.Policy { return LAS{} })
	rgp := mean(func() rt.Policy { return &RGP{Propagate: PropagateLAS} })
	if rgp > las*1.1 {
		t.Fatalf("RGP+LAS (%.0f) lost to LAS (%.0f) by more than 10%%", rgp, las)
	}
}

func TestPropagationString(t *testing.T) {
	if PropagateLAS.String() != "las" || PropagateRepartition.String() != "repartition" {
		t.Fatal("propagation labels wrong")
	}
	if Propagation(9).String() == "" {
		t.Fatal("unknown propagation label empty")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, c := range []struct {
		pol  rt.Policy
		want string
	}{
		{DFIFO{}, "DFIFO"},
		{LAS{}, "LAS"},
		{EP{}, "EP"},
		{&RGP{Propagate: PropagateLAS}, "RGP+LAS"},
		{&RGP{Propagate: PropagateRepartition}, "RGP(repartition)"},
	} {
		if got := c.pol.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestRGPRemoteRatioBeatsLAS(t *testing.T) {
	runWith := func(pol rt.Policy, seed uint64) rt.Result {
		r := newRT(t, pol, rt.Options{WindowSize: 512, Seed: seed})
		buildStencilLike(r, 10, 5)
		return r.Run()
	}
	lasRes := runWith(LAS{}, 1)
	rgpRes := runWith(&RGP{Propagate: PropagateLAS}, 1)
	if rgpRes.RemoteRatio() >= lasRes.RemoteRatio() {
		t.Fatalf("RGP+LAS remote ratio %.3f not below LAS %.3f",
			rgpRes.RemoteRatio(), lasRes.RemoteRatio())
	}
}
