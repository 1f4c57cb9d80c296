package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/trace"
	"numadag/internal/workload"
)

// countingWorkloads maps each counting workload registered so far to its
// counter, so a test repeated by -count reuses its registration.
var countingWorkloads sync.Map

// countingWorkload registers a tiny workload unique to the test whose Build
// invocations are counted, and returns its spec plus the counter, reset to
// zero.
func countingWorkload(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	name := fmt.Sprintf("count-%s", t.Name())
	if c, ok := countingWorkloads.Load(name); ok {
		builds := c.(*atomic.Int64)
		builds.Store(0)
		return name, builds
	}
	builds := new(atomic.Int64)
	err := workload.Register(name, "test counter", func(s workload.Spec, _ apps.Scale, _ uint64) (workload.Workload, error) {
		if err := s.Only(); err != nil {
			return workload.Workload{}, err
		}
		return workload.Workload{
			Build: func(r *rt.Runtime) error {
				builds.Add(1)
				reg := r.Mem().Alloc("x", 64<<10, memory.Deferred, 0)
				prev := r.Submit(rt.TaskSpec{Label: "w", Flops: 4000,
					Accesses: []rt.Access{{Region: reg, Mode: rt.Out}}, EPSocket: rt.NoEPHint})
				_ = prev
				for i := 0; i < 8; i++ {
					r.Submit(rt.TaskSpec{Label: fmt.Sprintf("r%d", i), Flops: 2000,
						Accesses: []rt.Access{{Region: reg, Mode: rt.In}}, EPSocket: rt.NoEPHint})
				}
				return nil
			},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	countingWorkloads.Store(name, builds)
	return name, builds
}

// TestExperimentTDGCacheBuildsOnce runs a multi-replicate, multi-policy grid
// on concurrent workers and checks the workload generator ran exactly once
// per (workload, machine) pair: the pool builds each shared graph's
// snapshot once.
func TestExperimentTDGCacheBuildsOnce(t *testing.T) {
	spec, builds := countingWorkload(t)
	e := &Experiment{
		Name:     "cache-once",
		Apps:     []string{spec},
		Policies: []string{"LAS", "DFIFO"},
		Scale:    apps.Tiny,
		Machines: []machine.Config{machine.TwoSocketXeon(), machine.FourSocket()},
		Seeds:    5,
		Workers:  4,
	}
	if err := e.Run(context.Background(), SinkFunc(func(CellResult) error { return nil })); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 2 { // one per machine
		t.Errorf("builds = %d, want 2 (one per machine)", got)
	}
}

// TestExperimentCacheEquivalence pins the guarantee of the pool's shared
// graphs: every cell of a grid, whether it installs a shared snapshot or
// builds its graph in place, has statistics identical to core.Run of the
// cell's config, which builds the graph from the generator. The shared grid's DFIFO
// replicates are copies of their leader's run. The mixed grid mixes both
// paths: each random layered spec runs in one cell, so its graph is built
// in place on the storage the pooled runtimes keep, while jacobi's graph,
// named by two spellings of its spec, is shared by two cells. An Experiment
// is a cross product, so two spellings are how a grid gives one graph two
// cells and the others one. Both run at one and at two workers, so in-place
// builds and releases interleave with installs of the shared snapshots.
// Each grid runs twice in a row: the pool recycles every snapshot it built
// once its cells have released their runtimes, so the second run builds
// its snapshots into the storage the first one recycled, and both runs must
// match core.Run.
func TestExperimentCacheEquivalence(t *testing.T) {
	shared := Experiment{
		Apps:     []string{"jacobi", "random-layered?layers=5&width=8&seed=3"},
		Policies: []string{"LAS", "DFIFO", "RGP+LAS"},
		Scale:    apps.Tiny,
		Seeds:    2,
	}
	mixed := Experiment{
		Apps: []string{"random-layered?layers=5&width=8&seed=3", "jacobi",
			"random-layered?layers=6&width=7&seed=4", "jacobi?scale=tiny"},
		Policies: []string{"RGP+LAS"},
		Scale:    apps.Tiny,
	}
	for _, c := range []struct {
		name    string
		e       Experiment
		workers []int
		cells   int
		inPlace int
		copies  bool
	}{
		{"shared", shared, []int{1, 2}, 12, 0, true},
		{"mixed/workers=1", mixed, []int{1}, 4, 2, false},
		{"mixed/workers=2", mixed, []int{2}, 4, 2, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range c.workers {
				e := c.e
				e.Workers = workers
				for run := 1; run <= 2; run++ {
					checkCacheEquivalence(t, &e, fmt.Sprintf("workers=%d, run %d", workers, run), c.cells, c.inPlace, c.copies)
				}
			}
		})
	}
}

// checkCacheEquivalence runs e once and demands its shape (cells, cells
// built in place, whether any cell was copied), that every snapshot it
// built was recycled, and that every cell equals core.Run of its config.
func checkCacheEquivalence(t *testing.T, e *Experiment, name string, cells, inPlace int, copies bool) {
	t.Helper()
	p, err := e.resolve()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, pl := range p.ps {
		if pl.graph < 0 {
			n++
		}
	}
	if n != inPlace {
		t.Fatalf("%s: %d of %d cells build in place, want %d", name, n, len(p.ps), inPlace)
	}
	recycled := countRecycles(p)
	var cached []CellResult
	err = e.execute(context.Background(), p, SinkFunc(func(r CellResult) error {
		cached = append(cached, r)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != cells {
		t.Fatalf("%s: %d cells, want %d", name, len(cached), cells)
	}
	if recycled.total() != len(p.graphs) {
		t.Errorf("%s: recycled %d snapshots, built %d", name, recycled.total(), len(p.graphs))
	}
	if copies != (p.copies > 0) {
		t.Errorf("%s: %d cells copied, want copies %v", name, p.copies, copies)
	}
	for i, r := range cached {
		rebuilt, err := Run(r.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Stats, rebuilt.Stats) {
			t.Errorf("%s: cell %d (%s/%s seed %d) diverged from core.Run:\n  grid:    %+v\n  rebuilt: %+v",
				name, i, r.Cell.App, r.Cell.Policy, r.Cell.Seed, r.Stats, rebuilt.Stats)
		}
	}
}

// recycles records what a pool recycles: how many snapshots, and
// how many times each snapshot's storage (one *rt.Snapshot, refilled by
// every Snap that takes it from the free list) was recycled.
type recycles struct {
	mu      sync.Mutex
	storage map[*rt.Snapshot]int
}

// countRecycles wraps p's recycle to record into the returned recycles.
// Call it before the pool's first claim.
func countRecycles(p *pool) *recycles {
	r := &recycles{storage: make(map[*rt.Snapshot]int)}
	recycle := p.recycle
	p.recycle = func(s *rt.Snapshot) {
		r.mu.Lock()
		r.storage[s]++
		r.mu.Unlock()
		recycle(s)
	}
	return r
}

// total returns the number of snapshots recycled.
func (r *recycles) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, k := range r.storage {
		n += k
	}
	return n
}

// storages returns the number of distinct snapshot storages recycled.
func (r *recycles) storages() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.storage)
}

// TestSnapshotCacheGraphOutlivesPooledBuild pins who owns a snapshot's
// graph: rt.Snap copies it into the snapshot's own storage, and the
// prototype runtime keeps its build storage and goes back to the runtime
// pool. A pooled runtime that then builds and releases a different graph in
// place, on the storage the prototype built into, changes nothing the
// snapshot holds: it still installs a run identical to a fresh core.Run.
func TestSnapshotCacheGraphOutlivesPooledBuild(t *testing.T) {
	mc := machine.TwoSocketXeon()
	cfg := DefaultConfig("random-layered?layers=6&width=8&seed=3", "LAS", apps.Tiny)
	cfg.Machine = mc
	w, err := workload.New(cfg.App, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot(mc) // Snap, then Release the prototype
	if err != nil {
		t.Fatal(err)
	}
	other := DefaultConfig("random-layered?layers=9&width=11&seed=4", "LAS", apps.Tiny)
	other.Machine = mc
	ow, err := workload.New(other.App, other.Scale)
	if err != nil {
		t.Fatal(err)
	}
	// Builds into the pooled runtime the prototype went back to, and into
	// the graph storage it kept, then runs and releases it.
	if _, err := runWith(other, &ow, nil); err != nil {
		t.Fatal(err)
	}
	got, err := runWith(cfg, nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("installed snapshot diverged from core.Run after a pooled in-place build:\n  installed: %+v\n  run:       %+v",
			got.Stats, want.Stats)
	}
}

// sharedGrid resolves a grid of n cells, one per policy, that all run the
// tiny graph of spec on a two-socket machine.
func sharedGrid(t *testing.T, spec string, n int) *pool {
	t.Helper()
	e := &Experiment{Apps: []string{spec}, Scale: apps.Tiny, Machines: []machine.Config{machine.TwoSocketXeon()}}
	for range n {
		e.Policies = append(e.Policies, "LAS")
	}
	p, err := e.resolve()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPoolBuildsOnce claims every cell of one shared graph from many
// goroutines and demands exactly one build, everyone sharing its result,
// and one recycle once every cell has released its hold.
func TestPoolBuildsOnce(t *testing.T) {
	const callers = 16
	spec, builds := countingWorkload(t)
	p := sharedGrid(t, spec, callers)
	recycled := countRecycles(p)
	var wg sync.WaitGroup
	snaps := make([]*rt.Snapshot, callers)
	for i := 0; i < len(snaps); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, ok := p.claim()
			if !ok {
				t.Error("no cell left to claim")
				return
			}
			snap, err := p.snapshot(j)
			if err != nil {
				t.Error(err)
				return
			}
			snaps[i] = snap
			p.release(j)
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("builds = %d, want 1", builds.Load())
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Fatal("goroutines received different snapshots")
		}
	}
	if _, ok := p.claim(); ok {
		t.Error("a cell was left to claim")
	}
	if n := recycled.total(); n != 1 {
		t.Errorf("recycled %d times once every cell released its hold, want 1", n)
	}
}

// TestPoolHoldTakenAtClaim pins when a cell's hold begins: at its claim,
// under the pool's lock, together with its count-down, so before the build
// finishes. Cell A is claimed first and builds the snapshot; cell B, the
// graph's last planned cell, is claimed while the build is still to come,
// by a worker with nothing else to claim, which waits for it. B must hold
// the snapshot from its claim. A then finishes first and releases its hold
// with every planned cell claimed: the snapshot must not be recycled under
// B, which still installs and runs it; B's release recycles it.
func TestPoolHoldTakenAtClaim(t *testing.T) {
	p := sharedGrid(t, "forkjoin?depth=3&fanout=2", 2)
	recycled := countRecycles(p)
	a, _ := p.claim()
	b, ok := p.claim()
	if !a.build || !ok || b.build || b.g != a.g {
		t.Fatalf("claims %+v and %+v (ok %v), want a builder and a cell of its graph", a, b, ok)
	}
	p.mu.Lock()
	if a.g.left != 0 || a.g.holds != 2 || a.g.ready {
		t.Errorf("B claimed: %d cells left, %d holds, ready %v; want 0, 2 and a build still to come", a.g.left, a.g.holds, a.g.ready)
	}
	p.mu.Unlock()
	type got struct {
		snap *rt.Snapshot
		err  error
	}
	bc := make(chan got, 1)
	go func() {
		snap, err := p.snapshot(b)
		bc <- got{snap, err}
	}()
	cfg := DefaultConfig("forkjoin?depth=3&fanout=2", "LAS", apps.Tiny)
	cfg.Machine = machine.TwoSocketXeon()
	if _, err := p.run(cfg, a); err != nil {
		t.Fatal(err)
	}
	if n := recycled.total(); n != 0 {
		t.Fatalf("A's release recycled the snapshot while B holds it")
	}
	bs := <-bc
	if bs.err != nil || bs.snap != a.g.snap {
		t.Fatalf("B got snapshot %p, err %v; want A's %p", bs.snap, bs.err, a.g.snap)
	}
	if _, err := runWith(cfg, nil, bs.snap); err != nil {
		t.Fatal(err)
	}
	p.release(b)
	if n := recycled.total(); n != 1 {
		t.Errorf("recycled %d times after both holds ended, want 1", n)
	}
}

// held returns the number of shared graphs whose build has started and
// whose planned cells are not all claimed (test hook).
func (p *pool) held() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, g := range p.graphs {
		if g != nil && g.built != nil {
			n++
		}
	}
	return n
}

// TestPoolLastUse pins the pool's memory bound: an Experiment drops each
// snapshot once the last cell planned for it has been claimed, so with each
// graph's cells back to back the pool never holds more than one graph per
// worker plus the one the next cell starts, and it holds none when Run
// returns. Dropping a graph early would rebuild it; the counting workload
// checks that each graph is still built once. Every snapshot the run built
// is recycled exactly once (rt panics on a second Recycle of one snapshot),
// and the snapshots share at most one storage per worker plus one, so the
// run adds no more than that to rt's free list of snapshot storage.
func TestPoolLastUse(t *testing.T) {
	spec, builds := countingWorkload(t)
	specs := []string{spec}
	for k := 0; k < 6; k++ {
		specs = append(specs, fmt.Sprintf("random-layered?layers=3&width=4&seed=%d", k))
	}
	for _, c := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=2", 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			builds.Store(0)
			e := &Experiment{
				Apps:     specs,
				Policies: []string{"LAS"},
				Scale:    apps.Tiny,
				Machines: []machine.Config{machine.TwoSocketXeon()},
				Seeds:    2,
				Workers:  c.workers,
			}
			p, err := e.resolve()
			if err != nil {
				t.Fatal(err)
			}
			recycled := countRecycles(p)
			peak := 0
			e.Progress = func(int, int, CellResult) { peak = max(peak, p.held()) }
			if err := e.execute(context.Background(), p); err != nil {
				t.Fatal(err)
			}
			if peak > c.workers+1 {
				t.Errorf("pool held %d snapshots with %d workers, want <= %d", peak, c.workers, c.workers+1)
			}
			for k, g := range p.graphs {
				if g != nil {
					t.Errorf("after Run: graph %d still planned for %d cells; want none", k, g.left)
				}
			}
			if got := builds.Load(); got != 1 {
				t.Errorf("counting workload built %d times, want 1", got)
			}
			if recycled.total() != len(specs) {
				t.Errorf("recycled %d snapshots built for %d graphs", recycled.total(), len(specs))
			}
			if n := recycled.storages(); n > c.workers+1 {
				t.Errorf("snapshots used %d storages with %d workers, want <= %d", n, c.workers, c.workers+1)
			}
		})
	}
}

// TestExperimentPinnedSnapshotsNotRecycled pins the cells that end their
// hold without releasing a runtime. A traced or an observed cell never
// releases its runtime, which still points at the snapshot's graph, so its
// snapshot is never recycled. A cell that fails after taking its snapshot
// pins it too, and the grid still returns the cell's error, with one worker
// and with two.
func TestExperimentPinnedSnapshotsNotRecycled(t *testing.T) {
	base := Experiment{
		Apps:     []string{"jacobi", "random-layered?layers=3&width=4&seed=1"},
		Policies: []string{"LAS", "DFIFO"},
		Scale:    apps.Tiny,
		Seeds:    2,
		Workers:  1, // countTasks is not safe for concurrent use
	}
	traced := base
	traced.Trace = trace.NewTracer()
	traced.Workers = 2
	observed := base
	observed.Runtime = rt.DefaultOptions()
	observed.Runtime.Observer = &countTasks{}
	failing := func(workers int) Experiment {
		e := base
		e.Policies = []string{"LAS", "test-no-such-policy"}
		e.Workers = workers
		return e
	}
	for _, c := range []struct {
		name  string
		e     Experiment
		fails bool
	}{
		{"traced", traced, false},
		{"observed", observed, false},
		{"failing/workers=1", failing(1), true},
		{"failing/workers=2", failing(2), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.e.resolve()
			if err != nil {
				t.Fatal(err)
			}
			if len(p.graphs) == 0 {
				t.Fatal("no cell shares a snapshot")
			}
			recycled := countRecycles(p)
			err = c.e.execute(context.Background(), p)
			if c.fails != (err != nil) {
				t.Fatalf("err = %v, want an error: %v", err, c.fails)
			}
			if n := recycled.total(); n != 0 {
				t.Errorf("recycled %d snapshots that a traced, observed or failed cell pinned", n)
			}
		})
	}
}

// onBuild and onPrepare, when set, are called with the first task's label
// of the test-first, test-second and test-gate workloads ("first",
// "second" or "gate"), at the start of each build and in each test-seeded
// run's Prepare.
var onBuild, onPrepare func(label string)

// seededPolicy reaches its seed in Prepare, so its followers always run,
// and places every task on any socket.
type seededPolicy struct{}

func (seededPolicy) Name() string                         { return "test-seeded" }
func (seededPolicy) PickSocket(*rt.Runtime, *rt.Task) int { return rt.AnySocket }
func (seededPolicy) Prepare(r *rt.Runtime) {
	r.Rand()
	if onPrepare != nil {
		onPrepare(r.Tasks()[0].Label())
	}
}

func init() {
	policy.MustRegister("test-seeded", func(policy.Spec) (rt.Policy, error) { return seededPolicy{}, nil })
	for _, label := range []string{"first", "second", "gate"} {
		err := workload.Register("test-"+label, "a two-task graph whose first task is "+label,
			func(s workload.Spec, _ apps.Scale, _ uint64) (workload.Workload, error) {
				return workload.Workload{Build: func(r *rt.Runtime) error {
					if onBuild != nil {
						onBuild(label)
					}
					reg := r.Mem().Alloc("x", 64<<10, memory.Deferred, 0)
					r.Submit(rt.TaskSpec{Label: label, Flops: 4000,
						Accesses: []rt.Access{{Region: reg, Mode: rt.Out}}, EPSocket: rt.NoEPHint})
					r.Submit(rt.TaskSpec{Label: "read", Flops: 2000,
						Accesses: []rt.Access{{Region: reg, Mode: rt.In}}, EPSocket: rt.NoEPHint})
					return nil
				}}, s.Only()
			})
		if err != nil {
			panic(err)
		}
	}
}

// runWithin runs e and fails the test when Run fails or takes a minute: a
// worker that waits while it has a cell to run waits for good here.
func runWithin(t *testing.T, e *Experiment) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- e.Run(context.Background()) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run hung: a worker waited while it had a cell to run")
	}
}

// TestPoolNoWaitOnBuild pins that a worker never waits for another
// worker's build while it has a cell to run. Two graphs of two cells each
// run on two workers, and the first graph's build waits until the second
// graph's build has run: the worker that claims the first graph's second
// cell must set it aside and build the second graph.
func TestPoolNoWaitOnBuild(t *testing.T) {
	second := make(chan struct{})
	onBuild = func(label string) {
		if label == "second" {
			close(second)
		} else {
			<-second
		}
	}
	defer func() { onBuild = nil }()
	runWithin(t, &Experiment{
		Apps:     []string{"test-first", "test-second"},
		Policies: []string{"LAS", "DFIFO"},
		Scale:    apps.Tiny,
		Workers:  2,
	})
}

// TestPoolNoWaitOnLeader pins that a worker never runs a follower beside
// its leader while it has another cell to run. A seeded policy's two
// replicates run on each of two graphs, on two workers, and the leader on
// the first graph waits in Prepare until a run on the second graph
// prepares: the worker that claims the first graph's follower must set it
// aside and run the second graph's leader.
func TestPoolNoWaitOnLeader(t *testing.T) {
	second := make(chan struct{})
	var once sync.Once
	onPrepare = func(label string) {
		if label == "second" {
			once.Do(func() { close(second) })
		} else {
			<-second
		}
	}
	defer func() { onPrepare = nil }()
	runWithin(t, &Experiment{
		Apps:     []string{"test-first", "test-second"},
		Policies: []string{"test-seeded"},
		Scale:    apps.Tiny,
		Seeds:    2,
		Workers:  2,
	})
}
