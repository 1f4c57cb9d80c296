package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"numadag/internal/apps"
	"numadag/internal/memory"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/workload"
)

// Test-only registrations; their names start with "test-" so the built-in
// policy list can leave them out.
var (
	// gateHit receives one value each time a test-gate run on the
	// test-gate workload reaches Prepare, which then blocks until gateOpen
	// is closed.
	gateHit  chan struct{}
	gateOpen chan struct{}
	errBoom  = errors.New("boom")
)

// gatePolicy places like DFIFO, never reaching the seed, and blocks in
// Prepare on the test-gate workload.
type gatePolicy struct{}

func (gatePolicy) Name() string                         { return "test-gate" }
func (gatePolicy) PickSocket(*rt.Runtime, *rt.Task) int { return rt.AnySocket }
func (gatePolicy) Prepare(r *rt.Runtime) {
	if r.Tasks()[0].Label == "gate" {
		gateHit <- struct{}{}
		<-gateOpen
	}
}

func init() {
	policy.MustRegister("test-gate", func(s policy.Spec) (rt.Policy, error) { return gatePolicy{}, nil })
	err := workload.Register("test-gate", "a small graph the test-gate policy blocks on",
		func(s workload.Spec, _ apps.Scale, _ uint64) (workload.Workload, error) {
			return workload.Workload{Build: func(r *rt.Runtime) error {
				reg := r.Mem().Alloc("x", 64<<10, memory.Deferred, 0)
				r.Submit(rt.TaskSpec{Label: "gate", Flops: 4000,
					Accesses: []rt.Access{{Region: reg, Mode: rt.Out}}, EPSocket: rt.NoEPHint})
				r.Submit(rt.TaskSpec{Label: "read", Flops: 2000,
					Accesses: []rt.Access{{Region: reg, Mode: rt.In}}, EPSocket: rt.NoEPHint})
				return nil
			}}, s.Only()
		})
	if err != nil {
		panic(err)
	}
	err = workload.Register("test-fail", "a workload whose build fails",
		func(s workload.Spec, _ apps.Scale, _ uint64) (workload.Workload, error) {
			return workload.Workload{Build: func(*rt.Runtime) error { return errBoom }}, s.Only()
		})
	if err != nil {
		panic(err)
	}
}

// TestSeedUseReport pins the report the experiment's reuse rests on: a run
// that reports it never reached its seed has the same Result at every seed,
// and the policies that draw random numbers report it. RGP partitions every
// window with a fixed partitioner seed, so it never reaches the runtime's
// seed and its results must not move with it. A 16-task window gives every
// graph several windows, so RGP+LAS places past its first window with LAS.
func TestSeedUseReport(t *testing.T) {
	seeded := map[string]bool{"LAS": true, "RGP+LAS": true}
	free := map[string]bool{"DFIFO": true, "RGP": true}
	var pols []string
	for _, p := range policy.Names() {
		if !strings.HasPrefix(p, "test-") {
			pols = append(pols, p)
		}
	}
	for _, app := range []string{"jacobi", "nstream", "random-layered?layers=5&width=8&seed=3"} {
		for _, pol := range pols {
			var res []RunResult
			for _, seed := range []uint64{1, 1001, 2001} {
				cfg := DefaultConfig(app, pol, apps.Tiny)
				cfg.Runtime.Seed = seed
				cfg.Runtime.WindowSize = 16
				r, err := runWith(cfg, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				res = append(res, r)
			}
			if seeded[pol] && !res[0].seedUsed {
				t.Errorf("%s %s: reports no seed use", app, pol)
			}
			if free[pol] && res[0].seedUsed {
				t.Errorf("%s %s: reports seed use; it draws nothing", app, pol)
			}
			for _, r := range res[1:] {
				if r.seedUsed != res[0].seedUsed {
					t.Errorf("%s %s: seeds %d and %d report seed use differently",
						app, pol, res[0].Config.Runtime.Seed, r.Config.Runtime.Seed)
				}
				if !res[0].seedUsed && !reflect.DeepEqual(r.Stats, res[0].Stats) {
					t.Errorf("%s %s: reports no seed use, but seeds %d and %d differ:\n  %+v\n  %+v",
						app, pol, res[0].Config.Runtime.Seed, r.Config.Runtime.Seed, res[0].Stats, r.Stats)
				}
			}
		}
	}
}

// TestExperimentReplicateCopiesMatchRuns pins the replicate reuse: every
// cell of a grid mixing seeded (LAS, RGP+LAS), seed-free (DFIFO, and RGP,
// whose window plan ignores the seed and is shared by the runs of one
// snapshot) and per-app (EP falls back to LAS without placement hints)
// groups equals a fresh core.Run of its config, each copy owns its slices,
// and with one worker exactly the followers of seed-free leaders are
// copied. A 16-task window gives every graph several windows.
func TestExperimentReplicateCopiesMatchRuns(t *testing.T) {
	const seeds = 3
	opts := rt.DefaultOptions()
	opts.WindowSize = 16
	for _, workers := range []int{1, 2} {
		e := &Experiment{
			Apps:     []string{"jacobi", "cg", "random-layered?layers=5&width=8&seed=3"},
			Policies: []string{"LAS", "DFIFO", "EP", "RGP+LAS", "RGP"},
			Scale:    apps.Tiny,
			Runtime:  opts,
			Seeds:    seeds,
			Workers:  workers,
		}
		g, err := e.resolve()
		if err != nil {
			t.Fatal(err)
		}
		var cells []CellResult
		sink := SinkFunc(func(r CellResult) error { cells = append(cells, r); return nil })
		if err := e.execute(context.Background(), g, sink); err != nil {
			t.Fatal(err)
		}
		if len(cells) != 3*5*seeds {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(cells), 3*5*seeds)
		}
		owners := make(map[any]int) // result slice -> the cell holding it
		copyable := 0
		for i, c := range cells {
			if c.Cell.Index != i || c.Config.Runtime.Seed != c.Cell.Seed {
				t.Fatalf("workers=%d: cell %d is %+v with seed %d", workers, i, c.Cell, c.Config.Runtime.Seed)
			}
			want, err := Run(c.Config)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.Stats, want.Stats) {
				t.Errorf("workers=%d: cell %d (%s/%s seed %d) differs from core.Run:\n  got:  %+v\n  want: %+v",
					workers, i, c.Cell.App, c.Cell.Policy, c.Cell.Seed, c.Stats, want.Stats)
			}
			if c.Cell.Replicate == 0 && !want.seedUsed {
				copyable += seeds - 1
			}
			if c.Cell.Policy == "RGP" && want.seedUsed {
				t.Errorf("workers=%d: cell %d (%s/RGP) reached its seed", workers, i, c.Cell.App)
			}
			for _, p := range []any{&c.Stats.BusyTime[0], &c.Stats.SocketTasks[0]} {
				if j, ok := owners[p]; ok {
					t.Errorf("workers=%d: cells %d and %d share a result slice", workers, j, i)
				}
				owners[p] = i
			}
		}
		// Every simulated cell takes its snapshot from the cache; a copy
		// only counts its entry down.
		hits, misses := g.cache.stats()
		simulated := hits + misses
		if copyable == 0 || copyable == len(cells) {
			t.Fatalf("%d of %d cells copyable: the grid must mix seeded and seed-free groups", copyable, len(cells))
		}
		if workers == 1 && simulated != len(cells)-copyable {
			t.Errorf("workers=1: simulated %d cells, want %d (%d copies)", simulated, len(cells)-copyable, copyable)
		}
		if simulated < len(cells)-copyable || simulated > len(cells) {
			t.Errorf("workers=%d: simulated %d cells, want %d..%d", workers, simulated, len(cells)-copyable, len(cells))
		}
		if n := g.cache.size(); n != 0 || len(g.cache.left) != 0 {
			t.Errorf("workers=%d: after Run: %d cached snapshots, %d planned keys left; want none", workers, n, len(g.cache.left))
		}
	}
}

// TestExperimentCancelWithFollowersSetAside cancels a grid while a
// follower is set aside and demands context.Canceled, without a hang and
// without copying the follower once the leader finishes. The grid is built so that the state is
// reached on every interleaving: test-gate is seed-free on jacobi, so by
// the time the test-gate workload's leader blocks, the worker that
// claims its followers sets both aside, runs the first itself (it has
// nothing else left to claim) and blocks too.
func TestExperimentCancelWithFollowersSetAside(t *testing.T) {
	gateHit, gateOpen = make(chan struct{}, 2), make(chan struct{})
	e := &Experiment{
		Apps:     []string{"jacobi", "test-gate"},
		Policies: []string{"test-gate"},
		Scale:    apps.Tiny,
		Seeds:    3,
		Workers:  2,
	}
	g, err := e.resolve()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- e.execute(ctx, g) }()
	for k := 0; k < 2; k++ {
		select {
		case <-gateHit:
		case <-time.After(time.Minute):
			t.Fatal("the gated leader and its set-aside follower never both started")
		}
	}
	cancel()
	close(gateOpen)
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run hung after cancellation with a follower set aside")
	}
	// A copy counts its cell down in the snapshot cache: the set-aside
	// follower must still be planned there, the grid's only cell left.
	alone := len(g.cache.left) == 1
	for _, n := range g.cache.left {
		alone = alone && n == 1
	}
	if !alone {
		t.Errorf("planned cells left in the cache: %v; want the set-aside follower alone", g.cache.left)
	}
}

// TestExperimentLeaderErrorAborts pins that an error in a group leader
// aborts the grid, with its followers set aside or not.
func TestExperimentLeaderErrorAborts(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e := &Experiment{
			Apps:     []string{"jacobi", "test-fail", "cg"},
			Policies: []string{"DFIFO"},
			Scale:    apps.Tiny,
			Seeds:    3,
			Workers:  workers,
		}
		delivered := 0
		err := e.Run(context.Background(), SinkFunc(func(CellResult) error { delivered++; return nil }))
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if delivered > 3 {
			t.Errorf("workers=%d: %d cells delivered past the failing leader", workers, delivered)
		}
	}
}

// TestExperimentBuildErrorOneWording pins that a failed build reads the
// same whichever path the cell took: built in place (its graph is the
// cell's alone) or through the snapshot cache (two policies share it), and
// the same as core.Run's.
func TestExperimentBuildErrorOneWording(t *testing.T) {
	var msgs []string
	for _, pols := range [][]string{{"LAS"}, {"LAS", "DFIFO"}} {
		e := &Experiment{Apps: []string{"test-fail"}, Policies: pols, Scale: apps.Tiny, Workers: 1}
		g, err := e.resolve()
		if err != nil {
			t.Fatal(err)
		}
		if want := len(pols) == 1; g.ps[0].inPlace != want {
			t.Fatalf("policies %v: in place = %v, want %v", pols, g.ps[0].inPlace, want)
		}
		err = e.Run(context.Background())
		if !errors.Is(err, errBoom) {
			t.Fatalf("policies %v: err = %v, want boom", pols, err)
		}
		msgs = append(msgs, err.Error())
	}
	_, err := Run(DefaultConfig("test-fail", "LAS", apps.Tiny))
	if !errors.Is(err, errBoom) {
		t.Fatalf("core.Run: err = %v, want boom", err)
	}
	msgs = append(msgs, err.Error())
	const want = "workload: build test-fail: boom"
	for i, m := range msgs {
		if m != want {
			t.Errorf("error %d = %q, want %q (in place, shared, core.Run)", i, m, want)
		}
	}
}
