package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/rt"
	"numadag/internal/workload"
)

// countingWorkload registers a tiny unique workload whose Build invocations
// are counted, and returns its spec plus the counter.
func countingWorkload(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	var builds atomic.Int64
	name := fmt.Sprintf("count-%s", t.Name())
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
	return name, &builds
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
// cell of a grid, run on a cached snapshot, has statistics identical to
// core.Run of the cell's config, which builds the graph from the generator.
func TestExperimentCacheEquivalence(t *testing.T) {
	var cached []CellResult
	e := &Experiment{
		Apps:     []string{"jacobi", "random-layered?layers=5&width=8&seed=3"},
		Policies: []string{"LAS", "RGP+LAS"},
		Scale:    apps.Tiny,
		Seeds:    2,
	}
	err := e.Run(context.Background(), SinkFunc(func(r CellResult) error {
		cached = append(cached, r)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != 2*2*2 {
		t.Fatalf("%d cells, want 8", len(cached))
	}
	for i, c := range cached {
		rebuilt, err := Run(c.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Stats, rebuilt.Stats) {
			t.Errorf("cell %d (%s/%s seed %d) diverged with cache:\n  cached:  %+v\n  rebuilt: %+v",
				i, c.Cell.App, c.Cell.Policy, c.Cell.Seed, c.Stats, rebuilt.Stats)
		}
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
	var wg sync.WaitGroup
	snaps := make([]*rt.Snapshot, callers)
	for i := 0; i < len(snaps); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.get("k", build)
			if err != nil {
				t.Error(err)
			}
			snaps[i] = s
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
// counting workload checks that each graph is still built once.
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
		})
	}
}
