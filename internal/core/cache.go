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
// drops the entry, and the graph is garbage once that cell finishes.
// Canonical order runs all of a workload's cells before the next
// workload's, so a sweep holds only the graphs of the workloads in
// progress — about one per worker and machine — however many distinct
// graphs it runs.
type snapshotCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// left counts, per key, the planned cells that have not yet taken or
	// forgone the snapshot.
	left   map[string]int
	hits   int
	misses int
}

type cacheEntry struct {
	once sync.Once
	snap *rt.Snapshot
	err  error
}

// newSnapshotCache returns an empty cache. planned maps each key to the
// number of get calls that will ask for it, and the cache takes ownership
// of it.
func newSnapshotCache(planned map[string]int) *snapshotCache {
	return &snapshotCache{entries: make(map[string]*cacheEntry), left: planned}
}

// get returns the snapshot for key, building it at most once across
// concurrent callers.
func (c *snapshotCache) get(key string, build func() (*rt.Snapshot, error)) (*rt.Snapshot, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.countDown(key)
	c.mu.Unlock()
	e.once.Do(func() { e.snap, e.err = build() })
	return e.snap, e.err
}

// forgo counts down a planned cell of key that will not take the snapshot
// (a replicate copied from its group leader's run).
func (c *snapshotCache) forgo(key string) {
	c.mu.Lock()
	c.countDown(key)
	c.mu.Unlock()
}

// countDown counts one planned cell of key as served and drops the entry
// after the last one. The caller holds mu.
func (c *snapshotCache) countDown(key string) {
	if c.left[key]--; c.left[key] == 0 {
		delete(c.entries, key)
		delete(c.left, key)
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
