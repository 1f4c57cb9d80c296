package rt

import (
	"strings"
	"testing"

	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/sim"
)

// pinned places every task on a fixed socket.
type pinned int

func (pinned) Name() string                     { return "pinned" }
func (p pinned) PickSocket(*Runtime, *Task) int { return int(p) }

// cyclic mimics DFIFO without importing the policy package.
type cyclic struct{}

func (cyclic) Name() string                   { return "cyclic" }
func (cyclic) PickSocket(*Runtime, *Task) int { return AnySocket }

func newTestRT(t *testing.T, pol Policy, opts Options) *Runtime {
	t.Helper()
	m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	return NewRuntime(m, pol, opts)
}

func TestSingleTaskRuns(t *testing.T) {
	r := newTestRT(t, pinned(0), Options{})
	reg := r.Mem().Alloc("x", 1<<16, memory.Deferred, 0)
	tk := r.Submit(TaskSpec{
		Label:    "t0",
		Flops:    8000,
		Accesses: []Access{{Region: reg, Mode: Out}},
		EPSocket: NoEPHint,
	})
	res := r.Run()
	if !tk.Done() {
		t.Fatal("task did not complete")
	}
	if res.TasksRun != 1 {
		t.Fatalf("TasksRun = %d", res.TasksRun)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %v", res.Makespan)
	}
	if tk.Socket != 0 {
		t.Fatalf("task ran on socket %d, want 0", tk.Socket)
	}
	// Deferred output must have been first-touched on socket 0.
	if got := reg.BytesOnSocket(2)[0]; got != 1<<16 {
		t.Fatalf("output homed wrong: %v", reg.BytesOnSocket(2))
	}
}

func TestRAWDependencyOrdersExecution(t *testing.T) {
	r := newTestRT(t, pinned(0), Options{})
	reg := r.Mem().Alloc("x", 4096, memory.Deferred, 0)
	producer := r.Submit(TaskSpec{Label: "w", Flops: 1000,
		Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
	consumer := r.Submit(TaskSpec{Label: "r", Flops: 1000,
		Accesses: []Access{{Region: reg, Mode: In}}, EPSocket: NoEPHint})
	r.Run()
	if consumer.StartAt < producer.EndAt {
		t.Fatalf("consumer started %v before producer ended %v", consumer.StartAt, producer.EndAt)
	}
	if r.Graph().EdgeWeight(producer.ID, consumer.ID) == 0 {
		t.Fatal("RAW edge missing")
	}
	if w := r.Graph().EdgeWeight(producer.ID, consumer.ID); w != 4096 {
		t.Fatalf("RAW edge weight = %d, want region bytes", w)
	}
}

func TestWARAndWAWDependencies(t *testing.T) {
	r := newTestRT(t, pinned(0), Options{})
	reg := r.Mem().Alloc("x", 4096, memory.Deferred, 0)
	w1 := r.Submit(TaskSpec{Label: "w1", Flops: 100,
		Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
	rd := r.Submit(TaskSpec{Label: "r", Flops: 100,
		Accesses: []Access{{Region: reg, Mode: In}}, EPSocket: NoEPHint})
	w2 := r.Submit(TaskSpec{Label: "w2", Flops: 100,
		Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
	g := r.Graph()
	if g.EdgeWeight(w1.ID, w2.ID) == 0 {
		t.Error("WAW edge missing")
	}
	if g.EdgeWeight(rd.ID, w2.ID) == 0 {
		t.Error("WAR edge missing")
	}
	if w := g.EdgeWeight(rd.ID, w2.ID); w != 1 {
		t.Errorf("WAR edge weight = %d, want 1 (ordering only)", w)
	}
	r.Run()
	if w2.StartAt < rd.EndAt || w2.StartAt < w1.EndAt {
		t.Fatal("write-after ordering violated")
	}
}

func TestInOutChainsSerially(t *testing.T) {
	r := newTestRT(t, pinned(0), Options{})
	reg := r.Mem().Alloc("acc", 4096, memory.Deferred, 0)
	var tasks []*Task
	for i := 0; i < 5; i++ {
		tasks = append(tasks, r.Submit(TaskSpec{Label: "acc", Flops: 500,
			Accesses: []Access{{Region: reg, Mode: InOut}}, EPSocket: NoEPHint}))
	}
	r.Run()
	for i := 1; i < len(tasks); i++ {
		if tasks[i].StartAt < tasks[i-1].EndAt {
			t.Fatalf("inout chain overlapped at %d", i)
		}
	}
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	r := newTestRT(t, cyclic{}, Options{})
	// 16 independent compute-only tasks on a 16-core machine: makespan must
	// be ~ one task's compute time, not 16x.
	var tasks []*Task
	for i := 0; i < 16; i++ {
		reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
		tasks = append(tasks, r.Submit(TaskSpec{Label: "c", Flops: 80000,
			Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint}))
	}
	res := r.Run()
	soloCompute := r.Machine().ComputeTime(80000)
	if res.Makespan > soloCompute*3 {
		t.Fatalf("16 independent tasks took %v, solo compute is %v", res.Makespan, soloCompute)
	}
	cores := make(map[int]bool)
	for _, tk := range tasks {
		cores[tk.Core] = true
	}
	if len(cores) != 16 {
		t.Fatalf("cyclic policy used %d distinct cores, want 16", len(cores))
	}
}

func TestPinnedPolicySerializesOnSocket(t *testing.T) {
	opts := Options{}
	opts.Steal = false
	r := newTestRT(t, pinned(1), opts)
	for i := 0; i < 8; i++ {
		reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
		r.Submit(TaskSpec{Label: "c", Flops: 8000,
			Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
	}
	res := r.Run()
	if res.SocketTasks[1] != 8 || res.SocketTasks[0] != 0 {
		t.Fatalf("socket task counts %v, want all on socket 1", res.SocketTasks)
	}
}

func TestStealingRescuesImbalance(t *testing.T) {
	// All tasks pinned to socket 0 with stealing on: socket 1 cores must
	// steal some of the 32 independent tasks.
	opts := Options{Steal: true}
	r := newTestRT(t, pinned(0), opts)
	for i := 0; i < 32; i++ {
		reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
		r.Submit(TaskSpec{Label: "c", Flops: 800000,
			Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
	}
	res := r.Run()
	if res.Steals == 0 {
		t.Fatal("no steals despite gross imbalance")
	}
	if res.SocketTasks[1] == 0 {
		t.Fatal("socket 1 never worked")
	}
}

func TestNoStealKeepsPlacement(t *testing.T) {
	opts := Options{Steal: false}
	r := newTestRT(t, pinned(0), opts)
	for i := 0; i < 32; i++ {
		reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
		r.Submit(TaskSpec{Label: "c", Flops: 800000,
			Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
	}
	res := r.Run()
	if res.Steals != 0 || res.SocketTasks[1] != 0 {
		t.Fatalf("stealing disabled but steals=%d, socket1=%d", res.Steals, res.SocketTasks[1])
	}
}

func TestLocalityMattersEndToEnd(t *testing.T) {
	// Data pre-homed on socket 0, four reader tasks: running the readers on
	// socket 0 (local) must beat running them on socket 1 (remote).
	run := func(execSocket int) sim.Time {
		r := newTestRT(t, pinned(execSocket), Options{Steal: false})
		reg := r.Mem().Alloc("data", 4<<20, memory.Home, 0)
		for i := 0; i < 4; i++ {
			out := r.Mem().Alloc("out", 64, memory.Deferred, 0)
			r.Submit(TaskSpec{Label: "consume", Flops: 1000,
				Accesses: []Access{{Region: reg, Mode: In}, {Region: out, Mode: Out}},
				EPSocket: NoEPHint})
		}
		return r.Run().Makespan
	}
	local, remote := run(0), run(1)
	if local >= remote {
		t.Fatalf("local run (%v) not faster than remote run (%v)", local, remote)
	}
}

func TestRemoteBytesAccounting(t *testing.T) {
	r := newTestRT(t, pinned(1), Options{Steal: false})
	reg := r.Mem().Alloc("data", 1<<20, memory.Home, 0)
	out := r.Mem().Alloc("out", 1<<20, memory.Deferred, 0)
	r.Submit(TaskSpec{Label: "t", Flops: 100,
		Accesses: []Access{{Region: reg, Mode: In}, {Region: out, Mode: Out}},
		EPSocket: NoEPHint})
	res := r.Run()
	if res.RemoteBytes != 1<<20 {
		t.Fatalf("RemoteBytes = %d, want input megabyte", res.RemoteBytes)
	}
	// Output was deferred -> homed on socket 1 -> local write.
	if res.LocalBytes != 1<<20 {
		t.Fatalf("LocalBytes = %d, want output megabyte", res.LocalBytes)
	}
	if res.RemoteRatio() != 0.5 {
		t.Fatalf("RemoteRatio = %v", res.RemoteRatio())
	}
}

func TestWindowAssignment(t *testing.T) {
	r := newTestRT(t, pinned(0), Options{WindowSize: 3})
	for i := 0; i < 8; i++ {
		reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
		r.Submit(TaskSpec{Label: "t", Flops: 10,
			Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
	}
	if r.Windows() != 3 {
		t.Fatalf("windows = %d, want 3", r.Windows())
	}
	if got := len(r.WindowTasks(0)); got != 3 {
		t.Fatalf("window 0 has %d tasks", got)
	}
	if got := len(r.WindowTasks(2)); got != 2 {
		t.Fatalf("window 2 has %d tasks", got)
	}
	for _, tk := range r.Tasks() {
		if want := int(tk.ID) / 3; tk.Window != want {
			t.Fatalf("task %d window %d, want %d", tk.ID, tk.Window, want)
		}
	}
}

// deferring defers the first window until released.
type deferring struct {
	released bool
}

func (*deferring) Name() string { return "deferring" }
func (d *deferring) PickSocket(r *Runtime, t *Task) int {
	if !d.released && t.Window == 0 {
		return DeferPlacement
	}
	return 0
}
func (d *deferring) Prepare(r *Runtime) {
	r.At(5000, func() {
		d.released = true
		r.ReleaseDeferred()
	})
}

func TestTemporaryQueueDefersExecution(t *testing.T) {
	r := newTestRT(t, &deferring{}, Options{WindowSize: 4})
	var tasks []*Task
	for i := 0; i < 4; i++ {
		reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
		tasks = append(tasks, r.Submit(TaskSpec{Label: "t", Flops: 10,
			Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint}))
	}
	res := r.Run()
	if res.Deferred != 4 {
		t.Fatalf("Deferred = %d, want 4", res.Deferred)
	}
	for _, tk := range tasks {
		if tk.StartAt < 5000 {
			t.Fatalf("deferred task started at %v, before release", tk.StartAt)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	build := func() *Runtime {
		r := newTestRT(t, cyclic{}, Options{Seed: 42, Steal: true})
		regs := make([]*memory.Region, 6)
		for i := range regs {
			regs[i] = r.Mem().Alloc("r", 32<<10, memory.Deferred, 0)
		}
		for i := 0; i < 40; i++ {
			r.Submit(TaskSpec{Label: "t", Flops: float64(1000 * (i%7 + 1)),
				Accesses: []Access{
					{Region: regs[i%6], Mode: InOut},
					{Region: regs[(i+1)%6], Mode: In},
				}, EPSocket: NoEPHint})
		}
		return r
	}
	a := build().Run()
	b := build().Run()
	if a.Makespan != b.Makespan || a.RemoteBytes != b.RemoteBytes || a.Steals != b.Steals {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestRunTwicePanics(t *testing.T) {
	r := newTestRT(t, pinned(0), Options{})
	r.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	r.Run()
}

// TestOptionsValidate pins the one check NewRuntime and the input-facing
// entry points share: negative options are named, and NewRuntime panics
// with the same error.
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	for field, opts := range map[string]Options{
		"WindowSize":           {WindowSize: -1},
		"PartitionCostPerTask": {PartitionCostPerTask: -1},
	} {
		err := opts.Validate()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: Validate() = %v", field, err)
		}
		func() {
			defer func() {
				if pe, ok := recover().(error); !ok || pe.Error() != err.Error() {
					t.Errorf("negative %s: NewRuntime panicked with %v, want %v", field, pe, err)
				}
			}()
			newTestRT(t, pinned(0), opts)
		}()
	}
}

func TestSubmitValidation(t *testing.T) {
	r := newTestRT(t, pinned(0), Options{})
	reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
	for i, f := range []func(){
		func() {
			r.Submit(TaskSpec{Flops: -1, Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
		},
		func() { r.Submit(TaskSpec{EPSocket: 5}) },
		func() { r.Submit(TaskSpec{Accesses: []Access{{Region: nil, Mode: Out}}, EPSocket: NoEPHint}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid spec accepted", i)
				}
			}()
			f()
		}()
	}
}

// TestSubmitCopiesAccesses pins that Submit only borrows TaskSpec.Accesses:
// each task keeps its own copy of the list, so a builder may refill one
// slice for every task. Overwriting the caller's slice after Submit returns
// leaves every task's list, and the dependences drawn from it, unchanged.
func TestSubmitCopiesAccesses(t *testing.T) {
	r := newTestRT(t, pinned(0), Options{})
	a := r.Mem().Alloc("a", 1<<16, memory.Deferred, 0)
	b := r.Mem().Alloc("b", 1<<10, memory.Deferred, 0)
	acc := []Access{{Region: a, Mode: Out}}
	w := r.Submit(TaskSpec{Label: "w", Flops: 1000, Accesses: acc, EPSocket: NoEPHint})
	acc[0] = Access{Region: b, Mode: InOut}
	acc = append(acc[:0], Access{Region: a, Mode: In}, Access{Region: b, Mode: Out})
	rd := r.Submit(TaskSpec{Label: "r", Flops: 1000, Accesses: acc, EPSocket: NoEPHint})
	acc[0], acc[1] = Access{Region: b, Mode: In}, Access{Region: a, Mode: InOut}
	for _, c := range []struct {
		task *Task
		want []Access
	}{
		{w, []Access{{Region: a, Mode: Out}}},
		{rd, []Access{{Region: a, Mode: In}, {Region: b, Mode: Out}}},
	} {
		if len(c.task.Accesses) != len(c.want) {
			t.Fatalf("task %s keeps %d accesses, want %d", c.task.Label(), len(c.task.Accesses), len(c.want))
		}
		for i, got := range c.task.Accesses {
			if got != c.want[i] {
				t.Fatalf("task %s access %d = {%s %v}, want {%s %v}", c.task.Label(), i,
					got.Region.Name(), got.Mode, c.want[i].Region.Name(), c.want[i].Mode)
			}
		}
	}
	if got := r.Graph().EdgeWeight(w.ID, rd.ID); got != a.Bytes() {
		t.Fatalf("RAW edge w->r weighs %d, want %d", got, a.Bytes())
	}
	if res := r.Run(); res.TasksRun != 2 {
		t.Fatalf("ran %d tasks, want 2", res.TasksRun)
	}
}

func TestCutBytesStat(t *testing.T) {
	// Producer on socket 0, consumer on socket 1 (per-task pinning via a
	// tiny policy), with a 1 MiB RAW edge -> CutBytes must include it.
	r := newTestRT(t, &alternating{}, Options{Steal: false})
	reg := r.Mem().Alloc("x", 1<<20, memory.Deferred, 0)
	r.Submit(TaskSpec{Label: "w", Flops: 100,
		Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
	r.Submit(TaskSpec{Label: "r", Flops: 100,
		Accesses: []Access{{Region: reg, Mode: In}}, EPSocket: NoEPHint})
	res := r.Run()
	if res.CutBytes != 1<<20 {
		t.Fatalf("CutBytes = %d, want %d", res.CutBytes, 1<<20)
	}
}

// alternating pins task i to socket i%2.
type alternating struct{ n int }

func (*alternating) Name() string { return "alternating" }
func (a *alternating) PickSocket(r *Runtime, t *Task) int {
	s := a.n % r.Machine().Sockets()
	a.n++
	return s
}

func TestLoadImbalanceStat(t *testing.T) {
	r := newTestRT(t, pinned(0), Options{Steal: false})
	reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
	r.Submit(TaskSpec{Label: "t", Flops: 1e6,
		Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
	res := r.Run()
	// One busy core out of 16 -> max/mean = 16 -> imbalance 15.
	if res.LoadImbalance < 14 || res.LoadImbalance > 16 {
		t.Fatalf("LoadImbalance = %v, want ~15", res.LoadImbalance)
	}
}

func TestResultSummaryNonEmpty(t *testing.T) {
	r := newTestRT(t, pinned(0), Options{})
	reg := r.Mem().Alloc("x", 64, memory.Deferred, 0)
	r.Submit(TaskSpec{Label: "t", Flops: 100,
		Accesses: []Access{{Region: reg, Mode: Out}}, EPSocket: NoEPHint})
	res := r.Run()
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestDiamondGraphMakespan(t *testing.T) {
	// a -> {b, c} -> d with pure compute; on >= 2 cores the makespan is
	// a + max(b, c) + d.
	r := newTestRT(t, cyclic{}, Options{})
	ra := r.Mem().Alloc("a", 4096, memory.Deferred, 0)
	rb := r.Mem().Alloc("b", 4096, memory.Deferred, 0)
	rc := r.Mem().Alloc("c", 4096, memory.Deferred, 0)
	spec := func(label string, flops float64, acc []Access) *Task {
		return r.Submit(TaskSpec{Label: label, Flops: flops, Accesses: acc, EPSocket: NoEPHint})
	}
	spec("a", 80000, []Access{{Region: ra, Mode: Out}})
	spec("b", 160000, []Access{{Region: ra, Mode: In}, {Region: rb, Mode: Out}})
	spec("c", 80000, []Access{{Region: ra, Mode: In}, {Region: rc, Mode: Out}})
	d := spec("d", 80000, []Access{{Region: rb, Mode: In}, {Region: rc, Mode: In}})
	res := r.Run()
	if !d.Done() {
		t.Fatal("sink never ran")
	}
	compute := r.Machine().ComputeTime(80000 + 160000 + 80000)
	if res.Makespan < compute {
		t.Fatalf("makespan %v below critical-path compute %v", res.Makespan, compute)
	}
	// Memory traffic is tiny here; allow 2x slack.
	if res.Makespan > compute*2 {
		t.Fatalf("makespan %v far above critical path %v", res.Makespan, compute)
	}
}

// randPick places each task on a socket drawn from the runtime's generator.
type randPick struct{}

func (randPick) Name() string { return "rand" }
func (randPick) PickSocket(r *Runtime, _ *Task) int {
	return r.Rand().Intn(r.Machine().Sockets())
}

// seedPick places each task by the seed in the options, which Options
// hides: every task lands on socket 0.
type seedPick struct{}

func (seedPick) Name() string { return "seed" }
func (seedPick) PickSocket(r *Runtime, _ *Task) int {
	return int(r.Options().Seed % uint64(r.Machine().Sockets()))
}

// TestSeedUsed pins the seed-use report: a Rand call marks the run; an
// Options call does not, because the options it returns carry no seed;
// nothing the runtime does on its own (windows, barriers, stealing) does;
// and a runtime drawn from the pool starts unmarked.
func TestSeedUsed(t *testing.T) {
	m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	for _, c := range []struct {
		pol  Policy
		want bool
	}{
		{randPick{}, true},
		{cyclic{}, false},
		{seedPick{}, false},
		{pinned(1), false}, // every task on socket 1: socket 0 steals
	} {
		r := NewRuntime(m, c.pol, Options{WindowSize: 4, Seed: 7, Steal: true})
		buildMixed(r, true)
		buildLayeredRT(r, 10, 20)
		res := r.Run()
		if r.SeedUsed() != c.want {
			t.Errorf("%s: SeedUsed = %v, want %v", c.pol.Name(), r.SeedUsed(), c.want)
		}
		if seed := r.Options().Seed; seed != 0 {
			t.Errorf("%s: Options().Seed = %d, want 0 (the seed is reachable only through Rand)", c.pol.Name(), seed)
		}
		if _, ok := c.pol.(pinned); ok && res.Steals == 0 {
			t.Errorf("%s: no steals; the case must exercise stealing", c.pol.Name())
		}
		m.Reset()
		r.Release()
	}
}
