package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/memory"
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
// per (workload, machine) pair.
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

// TestExperimentCacheEquivalence pins the cache's core guarantee: every
// cell of a grid, whether it installs a cached snapshot or builds its graph
// in place, has statistics identical to core.Run of the cell's config,
// which builds the graph from the generator. The shared grid's DFIFO
// replicates are copies of their leader's run. The mixed grid mixes both
// paths: each random layered spec runs in one cell, so its graph is built
// in place on the storage the pooled runtimes keep, while jacobi's graph,
// named by two spellings of its spec, is shared by two cells. An Experiment
// is a cross product, so two spellings are how a grid gives one graph two
// cells and the others one. Both run at one and at two workers, so in-place
// builds and releases interleave with installs of the shared snapshots.
// Each grid runs twice in a row: the cache recycles every snapshot it built
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
	g, err := e.resolve()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range g.ps {
		if p.inPlace {
			n++
		}
	}
	if n != inPlace {
		t.Fatalf("%s: %d of %d cells build in place, want %d", name, n, len(g.ps), inPlace)
	}
	recycled := countRecycles(g.cache)
	var cached []CellResult
	err = e.execute(context.Background(), g, SinkFunc(func(r CellResult) error {
		cached = append(cached, r)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != cells {
		t.Fatalf("%s: %d cells, want %d", name, len(cached), cells)
	}
	hits, misses := g.cache.stats()
	if recycled.total() != misses {
		t.Errorf("%s: recycled %d snapshots, built %d", name, recycled.total(), misses)
	}
	if copied := len(cached) - inPlace - hits - misses; copies != (copied > 0) {
		t.Errorf("%s: %d cells copied, want copies %v", name, copied, copies)
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

// recycles records what a snapshot cache recycles: how many snapshots, and
// how many times each snapshot's storage (one *rt.Snapshot, refilled by
// every Snap that takes it from the free list) was recycled.
type recycles struct {
	mu      sync.Mutex
	storage map[*rt.Snapshot]int
}

// countRecycles wraps c's recycle to record into the returned recycles.
// Call it before the cache's first get.
func countRecycles(c *snapshotCache) *recycles {
	r := &recycles{storage: make(map[*rt.Snapshot]int)}
	recycle := c.recycle
	c.recycle = func(s *rt.Snapshot) {
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

// TestSnapshotCacheSingleflight hammers one key from many goroutines and
// demands exactly one build, everyone sharing its result.
func TestSnapshotCacheSingleflight(t *testing.T) {
	const callers = 16
	c := newSnapshotCache(map[string]int{"k": callers})
	var builds atomic.Int64
	w, err := workload.New("forkjoin?depth=3&fanout=2", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*rt.Snapshot, error) {
		builds.Add(1)
		return w.Snapshot(machine.TwoSocketXeon())
	}
	recycled := countRecycles(c)
	var wg sync.WaitGroup
	snaps := make([]*rt.Snapshot, callers)
	for i := 0; i < len(snaps); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.get("k", build)
			if err != nil {
				t.Error(err)
				return
			}
			snaps[i] = e.snap
			c.put(e)
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
	hits, misses := c.stats()
	if hits != 15 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 15/1", hits, misses)
	}
	if n := recycled.total(); n != 1 {
		t.Errorf("recycled %d times once every caller put it back, want 1", n)
	}
}

// TestSnapshotCacheHoldTakenInGet pins when a cell's hold begins: in get,
// under the cache's lock, together with its count-down, so before the
// build finishes. Cell A builds the snapshot; cell B, the key's last
// planned cell, asks for it meanwhile and waits on the build. When A's build
// sees B's count-down, B must hold the snapshot already. A then finishes
// first and puts its hold back with every planned cell served: the
// snapshot must not be recycled under B, which still installs and runs it;
// B's put recycles it.
func TestSnapshotCacheHoldTakenInGet(t *testing.T) {
	mc := machine.TwoSocketXeon()
	cfg := DefaultConfig("forkjoin?depth=3&fanout=2", "LAS", apps.Tiny)
	cfg.Machine = mc
	w, err := workload.New(cfg.App, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	c := newSnapshotCache(map[string]int{"k": 2})
	recycled := countRecycles(c)
	type got struct {
		e   *cacheEntry
		err error
	}
	bc := make(chan got, 1)
	a, err := c.get("k", func() (*rt.Snapshot, error) {
		c.mu.Lock()
		e := c.entries["k"] // the map drops it at B's count-down
		c.mu.Unlock()
		go func() {
			e, err := c.get("k", func() (*rt.Snapshot, error) { return nil, errors.New("built twice") })
			bc <- got{e, err}
		}()
		for counted := false; !counted; runtime.Gosched() {
			c.mu.Lock()
			if counted = c.left["k"] == 0; counted && e.holds != 2 {
				t.Errorf("B counted down holding nothing: %d holds, want 2", e.holds)
			}
			c.mu.Unlock()
		}
		return w.Snapshot(mc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runWith(cfg, nil, a.snap); err != nil {
		t.Fatal(err)
	}
	c.put(a)
	if n := recycled.total(); n != 0 {
		t.Fatalf("A's put recycled the snapshot while B holds it")
	}
	b := <-bc
	if b.err != nil || b.e != a {
		t.Fatalf("B got entry %p, err %v; want A's entry %p", b.e, b.err, a)
	}
	if _, err := runWith(cfg, nil, b.e.snap); err != nil {
		t.Fatal(err)
	}
	c.put(b.e)
	if n := recycled.total(); n != 1 {
		t.Errorf("recycled %d times after both holds ended, want 1", n)
	}
}

// size returns the number of cached snapshots (test hook).
func (c *snapshotCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// TestSnapshotCacheLastUse pins the cache's memory bound: an Experiment
// drops each snapshot once the last cell planned for it has taken it, so
// with each graph's cells back to back the cache never holds more than one
// graph per worker plus the one the next cell starts, and it is empty when
// Run returns. Dropping an entry early would rebuild its graph; the
// counting workload checks that each graph is still built once. Every
// snapshot the run built is recycled exactly once (rt panics on a second
// Recycle of one snapshot), and the snapshots share at most one storage per
// worker plus one, so the run adds no more than that to rt's free list of
// snapshot storage.
func TestSnapshotCacheLastUse(t *testing.T) {
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
			g, err := e.resolve()
			if err != nil {
				t.Fatal(err)
			}
			recycled := countRecycles(g.cache)
			peak := 0
			e.Progress = func(int, int, CellResult) { peak = max(peak, g.cache.size()) }
			if err := e.execute(context.Background(), g); err != nil {
				t.Fatal(err)
			}
			if peak > c.workers+1 {
				t.Errorf("cache held %d snapshots with %d workers, want <= %d", peak, c.workers, c.workers+1)
			}
			if n := g.cache.size(); n != 0 || len(g.cache.left) != 0 {
				t.Errorf("after Run: %d cached snapshots, %d planned keys left; want none", n, len(g.cache.left))
			}
			if got := builds.Load(); got != 1 {
				t.Errorf("cached workload built %d times, want 1", got)
			}
			if _, misses := g.cache.stats(); recycled.total() != misses || misses != len(specs) {
				t.Errorf("recycled %d of %d snapshots built for %d graphs", recycled.total(), misses, len(specs))
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
			g, err := c.e.resolve()
			if err != nil {
				t.Fatal(err)
			}
			recycled := countRecycles(g.cache)
			err = c.e.execute(context.Background(), g)
			if c.fails != (err != nil) {
				t.Fatalf("err = %v, want an error: %v", err, c.fails)
			}
			if _, misses := g.cache.stats(); misses == 0 {
				t.Fatal("no cell took a snapshot")
			}
			if n := recycled.total(); n != 0 {
				t.Errorf("recycled %d snapshots that a traced, observed or failed cell pinned", n)
			}
		})
	}
}
