package rt

import (
	"sync"
	"sync/atomic"
	"testing"
)

// sharedTestSnap snapshots buildMixed's graph for the Shared tests.
func sharedTestSnap(t *testing.T) *Snapshot {
	t.Helper()
	proto := newSnapRT(pinned(0), Options{})
	buildMixed(proto, true)
	snap, err := Snap(proto)
	if err != nil {
		t.Fatal(err)
	}
	proto.Release()
	return snap
}

// sharedProbe is a value Shared hands out: a fresh pointer per build, so
// identity tells builds apart.
type sharedProbe struct{ tasks int }

// TestSharedBuildsOncePerSnapshot pins the sharing contract: runtimes that
// install one snapshot and ask for one key at the same time, from several
// goroutines, run the build once and all receive its value; a runtime
// installed later receives it too.
func TestSharedBuildsOncePerSnapshot(t *testing.T) {
	snap := sharedTestSnap(t)
	const workers = 8
	var builds atomic.Int32
	got := make([]any, workers+1)
	ask := func(i int) {
		r := newSnapRT(cyclic{}, Options{WindowSize: 4})
		snap.Install(r)
		got[i] = r.Shared([]byte("test.key"), func() any {
			builds.Add(1)
			return &sharedProbe{tasks: len(r.Tasks())}
		})
		r.Release()
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			ask(w)
		}(w)
	}
	close(start)
	wg.Wait()
	ask(workers)
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d runtimes of one snapshot ran the build %d times, want 1", workers+1, n)
	}
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("runtime %d received %p, runtime 0 %p: not one shared value", i, v, got[0])
		}
	}
	if v := got[0].(*sharedProbe); v.tasks != snap.Tasks() {
		t.Fatalf("shared value saw %d tasks, want %d", v.tasks, snap.Tasks())
	}
}

// TestSharedWithoutSnapshotBuildsEveryTime pins the miss path: a runtime
// that built its own graph has no snapshot to keep a value on, so every
// call runs the build.
func TestSharedWithoutSnapshotBuildsEveryTime(t *testing.T) {
	r := newSnapRT(cyclic{}, Options{WindowSize: 4})
	buildMixed(r, true)
	builds := 0
	var last any
	for i := 0; i < 3; i++ {
		v := r.Shared([]byte("test.key"), func() any {
			builds++
			return &sharedProbe{tasks: len(r.Tasks())}
		})
		if v == last {
			t.Fatalf("call %d returned the previous call's value", i)
		}
		last = v
	}
	if builds != 3 {
		t.Fatalf("3 calls ran the build %d times, want 3", builds)
	}
	r.Release()
}

// TestSharedDistinctKeys pins the keying: distinct keys get distinct
// values, and the key is copied, so a caller that reuses its buffer for
// the next key neither loses the first value nor aliases the two.
func TestSharedDistinctKeys(t *testing.T) {
	snap := sharedTestSnap(t)
	r := newSnapRT(cyclic{}, Options{})
	snap.Install(r)
	builds := 0
	get := func(key []byte) any {
		return r.Shared(key, func() any { builds++; return &sharedProbe{} })
	}
	buf := []byte("test.a")
	a := get(buf)
	buf[len(buf)-1] = 'b'
	b := get(buf)
	buf = append(buf[:len(buf)-1], 'a')
	again := get(buf)
	ab := get([]byte("test.ab"))
	if a == b || a == ab || b == ab {
		t.Fatal("distinct keys share a value")
	}
	if again != a {
		t.Fatal("the first key lost its value when the caller reused its buffer")
	}
	if builds != 3 {
		t.Fatalf("3 distinct keys ran %d builds, want 3", builds)
	}
	r.Release()
}

// TestSharedPanicReachesEveryRuntime pins a failed build: a build that
// panics must not leave an entry that later runtimes read as a nil value.
// Every runtime of the snapshot that asks for the key, concurrently or
// later, panics with the build's value, and the build runs once.
func TestSharedPanicReachesEveryRuntime(t *testing.T) {
	snap := sharedTestSnap(t)
	const workers = 6
	var builds atomic.Int32
	recovered := make([]any, workers+1)
	ask := func(i int) {
		defer func() { recovered[i] = recover() }()
		r := newSnapRT(cyclic{}, Options{})
		snap.Install(r)
		v := r.Shared([]byte("test.boom"), func() any {
			builds.Add(1)
			panic("boom")
		})
		t.Errorf("runtime %d received %v instead of a panic", i, v)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ask(w)
		}(w)
	}
	wg.Wait()
	ask(workers)
	if n := builds.Load(); n != 1 {
		t.Fatalf("the failing build ran %d times, want 1", n)
	}
	for i, p := range recovered {
		if p != "boom" {
			t.Fatalf("runtime %d recovered %v, want the build's panic %q", i, p, "boom")
		}
	}
	// Other keys of the snapshot are unaffected.
	r := newSnapRT(cyclic{}, Options{})
	snap.Install(r)
	if v := r.Shared([]byte("test.ok"), func() any { return 7 }); v != 7 {
		t.Fatalf("another key returned %v after a failed build, want 7", v)
	}
}
