package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestListSurvivesGC pins what sets a List apart from sync.Pool: an object
// Put before a collection comes back from Get after it.
func TestListSurvivesGC(t *testing.T) {
	var l List[[64]byte]
	x := new([64]byte)
	l.Put(x)
	runtime.GC()
	runtime.GC()
	if got := l.Get(); got != x {
		t.Fatalf("Get after GC = %p, want the object Put before it (%p)", got, x)
	}
	if got := l.Get(); got != nil {
		t.Fatalf("Get on an empty list = %p, want nil", got)
	}
}

// TestListConcurrent checks out objects from several goroutines at once:
// every object Put comes back exactly once, and the list never holds more
// than were checked out together.
func TestListConcurrent(t *testing.T) {
	const workers, rounds = 8, 1000
	var l List[int]
	var mu sync.Mutex
	created := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := l.Get()
				if x == nil {
					x = new(int)
					mu.Lock()
					created++
					mu.Unlock()
				}
				*x++
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if created > workers {
		t.Errorf("created %d objects for %d concurrent users", created, workers)
	}
	seen := make(map[*int]bool)
	sum := 0
	for x := l.Get(); x != nil; x = l.Get() {
		if seen[x] {
			t.Fatalf("object %p returned twice", x)
		}
		seen[x] = true
		sum += *x
	}
	if len(seen) != created || sum != workers*rounds {
		t.Errorf("drained %d objects with %d uses, want %d objects with %d uses", len(seen), sum, created, workers*rounds)
	}
}
