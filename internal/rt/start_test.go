package rt

import (
	"math"
	"reflect"
	"testing"

	"numadag/internal/machine"
	"numadag/internal/sim"
)

// sameResult compares two Results exactly except for the port-utilization
// summaries, which are allowed a few ulps: on a machine that ran earlier
// jobs, a run's utilization is a windowed difference of cumulative traffic
// integrals, and float subtraction of a settled integral is not
// bit-identical to a fresh one. Everything the determinism goldens pin
// (times, counts, bytes) must be exact.
func sameResult(got, want Result) bool {
	const tol = 1e-12
	g, w := got, want
	if math.Abs(g.MeanPortUtilization-w.MeanPortUtilization) > tol ||
		math.Abs(g.MaxPortUtilization-w.MaxPortUtilization) > tol {
		return false
	}
	g.MeanPortUtilization, w.MeanPortUtilization = 0, 0
	g.MaxPortUtilization, w.MaxPortUtilization = 0, 0
	return reflect.DeepEqual(g, w)
}

// TestStartMatchesRun pins the async path's equivalence contract: Start +
// an externally pumped engine must produce the exact Result Run does —
// same prologue, same event schedule, same statistics — since the only
// difference is who pumps the engine.
func TestStartMatchesRun(t *testing.T) {
	opts := Options{WindowSize: 5, Seed: 11, Steal: true, StealThreshold: 2}

	runRT := newSnapRT(cyclic{}, opts)
	buildMixed(runRT, true)
	want := runRT.Run()

	startRT := newSnapRT(cyclic{}, opts)
	buildMixed(startRT, true)
	var got Result
	fired := 0
	startRT.Start(func(res Result) { fired++; got = res })
	startRT.Machine().Engine().Run()
	if fired != 1 {
		t.Fatalf("completion callback fired %d times, want 1", fired)
	}
	if !sameResult(got, want) {
		t.Fatalf("Start result differs from Run:\n got %+v\nwant %+v", got, want)
	}
	if err := startRT.AuditSchedule(); err != nil {
		t.Fatal(err)
	}
}

// TestStartZeroTasks pins the degenerate case cluster fuzzing exercises:
// a job with no tasks completes synchronously, before Start returns, with
// a zero makespan.
func TestStartZeroTasks(t *testing.T) {
	r := newSnapRT(pinned(0), Options{})
	fired := false
	r.Start(func(res Result) {
		fired = true
		if res.Makespan != 0 || res.TasksRun != 0 {
			t.Errorf("zero-task result = %+v, want zero makespan and tasks", res)
		}
	})
	if !fired {
		t.Fatal("zero-task Start did not complete synchronously")
	}
}

// TestStartSharedEngine pins the cluster execution model: two machines on
// ONE engine, each running its own job via Start, with the second job
// starting mid-flight of the first. Each job's Result must be bit-identical
// to running it alone on a fresh machine — the machines share a clock but
// no resources, and Makespan is anchored at Start time, not the epoch.
func TestStartSharedEngine(t *testing.T) {
	opts := Options{WindowSize: 6, Seed: 3, Steal: true, StealThreshold: 2}
	solo := func(barriers bool) Result {
		r := newSnapRT(cyclic{}, opts)
		buildMixed(r, barriers)
		return r.Run()
	}
	wantA, wantB := solo(false), solo(true)

	eng := sim.NewEngine()
	mA := machine.New(machine.TwoSocketXeon(), eng)
	mB := machine.New(machine.TwoSocketXeon(), eng)
	rA := NewRuntime(mA, cyclic{}, opts)
	buildMixed(rA, false)
	var gotA, gotB Result
	doneA, doneB := false, false
	rA.Start(func(res Result) { gotA, doneA = res, true })
	// Let job A make progress, then launch job B at a nonzero epoch.
	eng.RunUntil(wantA.Makespan / 2)
	if doneA {
		t.Fatal("job A finished before its makespan midpoint")
	}
	rB := NewRuntime(mB, cyclic{}, opts)
	buildMixed(rB, true)
	startB := eng.Now()
	rB.Start(func(res Result) { gotB, doneB = res, true })
	eng.Run()
	if !doneA || !doneB {
		t.Fatalf("jobs incomplete: A=%v B=%v", doneA, doneB)
	}
	if !sameResult(gotA, wantA) {
		t.Fatalf("job A on shared engine differs from solo run:\n got %+v\nwant %+v", gotA, wantA)
	}
	if !sameResult(gotB, wantB) {
		t.Fatalf("job B (started at %v) differs from solo run:\n got %+v\nwant %+v", startB, gotB, wantB)
	}
	if err := rA.AuditSchedule(); err != nil {
		t.Fatal(err)
	}
	if err := rB.AuditSchedule(); err != nil {
		t.Fatal(err)
	}
}

// TestStartBackToBackOnPooledMachine drives the exact recycling loop the
// cluster's per-machine job queue runs: job finishes -> Release the runtime
// -> immediately Start the next job on the same machine (same engine, same
// Net, clock never rewound). Then three Runs in a row on one machine that is
// never reset: Run measures from its own start just as Start does. Every
// result must match the solo run.
func TestStartBackToBackOnPooledMachine(t *testing.T) {
	opts := Options{WindowSize: 6, Seed: 5, Steal: true, StealThreshold: 2}
	want := func() Result {
		r := newSnapRT(cyclic{}, opts)
		buildMixed(r, false)
		return r.Run()
	}()

	eng := sim.NewEngine()
	m := machine.New(machine.TwoSocketXeon(), eng)
	var results []Result
	var launch func()
	launch = func() {
		r := NewRuntime(m, cyclic{}, opts)
		buildMixed(r, false)
		r.Start(func(res Result) {
			results = append(results, res)
			r.Release()
			if len(results) < 3 {
				launch()
			}
		})
	}
	launch()
	eng.Run()
	if len(results) != 3 {
		t.Fatalf("%d jobs completed, want 3", len(results))
	}
	for i, got := range results {
		if !sameResult(got, want) {
			t.Fatalf("job %d on recycled machine differs from solo run:\n got %+v\nwant %+v", i, got, want)
		}
	}

	m = machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	for i := 0; i < 3; i++ {
		r := NewRuntime(m, cyclic{}, opts)
		buildMixed(r, false)
		if got := r.Run(); !sameResult(got, want) {
			t.Fatalf("Run %d on a machine never reset differs from solo run:\n got %+v\nwant %+v", i, got, want)
		}
		r.Release()
	}
}
