package core

import (
	"fmt"
	"sync"

	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/workload"
)

// snapshotCache memoizes the task graphs (rt.Snapshot) that several cells
// of a grid share, keyed by (workload key, machine topology). A graph only
// one cell runs never enters it: that cell builds the graph in place (see
// Experiment.resolve). Concurrent workers asking for the same key share a
// single build — the first caller runs it under the entry's once, the rest
// block on it — so a sweep constructs each graph exactly once.
//
// The cache knows each key's planned cells up front and counts them down as
// they take the snapshot, or forgo it as copied replicates: the last one
// drops the entry. Canonical order runs all of a workload's cells before
// the next workload's, so a sweep holds only the graphs of the workloads in
// progress — about one per worker and machine — however many distinct
// graphs it runs.
//
// The cache is also the sole owner of every snapshot it builds, and
// recycles it under the rule rt.Snapshot.Recycle states. Besides the
// planned cells, it counts the cells that hold the snapshot, from get until
// put, which a cell calls once its runtime is released. When both counts
// reach zero the snapshot's storage goes back to rt's free list, and the
// next graph's build fills it again. A cell whose runtime is never released
// (a traced or observed cell, or one that failed) never calls put, so its
// snapshot is left to the garbage collector, as is one whose build failed.
type snapshotCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// left counts, per key, the planned cells that have not yet taken or
	// forgone the snapshot.
	left   map[string]int
	hits   int
	misses int
	// recycle returns a snapshot's storage to rt's free list; tests wrap it
	// to watch what the cache recycles.
	recycle func(*rt.Snapshot)
}

type cacheEntry struct {
	once sync.Once
	snap *rt.Snapshot
	err  error
	// holds counts the cells between get and put, and served is set once
	// every planned cell has taken or forgone the snapshot; the cache's mu
	// guards both.
	holds  int
	served bool
}

// newSnapshotCache returns an empty cache. planned maps each key to the
// number of get calls that will ask for it, and the cache takes ownership
// of it.
func newSnapshotCache(planned map[string]int) *snapshotCache {
	return &snapshotCache{entries: make(map[string]*cacheEntry), left: planned, recycle: (*rt.Snapshot).Recycle}
}

// get returns key's entry, whose snap is the snapshot, building it at most
// once across concurrent callers. The caller also gets a hold on the
// snapshot, which put ends; a caller that never calls put keeps it from
// being recycled. The hold is taken under mu together with the count-down,
// before the build finishes: a cell that has counted down must already keep
// the snapshot from a faster cell that would otherwise find both counts at
// zero and recycle it before this cell installs it.
func (c *snapshotCache) get(key string, build func() (*rt.Snapshot, error)) (*cacheEntry, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
		e = &cacheEntry{}
		c.entries[key] = e
	}
	e.holds++
	c.countDown(key, e)
	c.mu.Unlock()
	e.once.Do(func() { e.snap, e.err = build() })
	return e, e.err
}

// put ends a hold get gave out, once the cell's runtime has gone back to
// the runtime pool and so dropped its reference to the snapshot.
func (c *snapshotCache) put(e *cacheEntry) {
	c.mu.Lock()
	e.holds--
	done := e.served && e.holds == 0
	c.mu.Unlock()
	if done {
		c.recycle(e.snap)
	}
}

// forgo counts down a planned cell of key that will not take the snapshot
// (a replicate copied from its group leader's run); it holds nothing.
func (c *snapshotCache) forgo(key string) {
	c.mu.Lock()
	e := c.entries[key] // its leader took it, so it is still planned
	c.countDown(key, e)
	done := e.served && e.holds == 0
	c.mu.Unlock()
	if done {
		c.recycle(e.snap)
	}
}

// countDown counts one planned cell of key's entry e as served and drops
// the entry after the last one. The caller holds mu.
func (c *snapshotCache) countDown(key string, e *cacheEntry) {
	if c.left[key]--; c.left[key] == 0 {
		delete(c.entries, key)
		delete(c.left, key)
		e.served = true
	}
}

// stats returns the hit/miss counters (test hook).
func (c *snapshotCache) stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// cacheKey identifies a built TDG: the workload key (canonical spec, scale,
// generator seed) plus the machine topology — expert placements and data
// distributions depend on the socket layout, so the same spec on a
// different machine is a different graph.
func cacheKey(w workload.Workload, mc machine.Config) string {
	return fmt.Sprintf("%s|%s/%dx%d", w.Key(), mc.Name, mc.Sockets, mc.CoresPerSocket)
}
