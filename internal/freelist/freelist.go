// Package freelist recycles scratch objects across calls. Unlike sync.Pool,
// a List is never emptied by the garbage collector: an object Put stays until
// a Get takes it. A List therefore holds at most the peak number of objects
// checked out at once, and warmed scratch survives a collection instead of
// being re-grown after every GC.
package freelist

import "sync"

// List is a mutex-guarded stack of reusable *T. The zero value is an empty
// list ready for use. A List must not be copied after first use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get removes and returns the most recently Put object, or nil when the
// list is empty.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put returns x to the list for a later Get. The caller must not use x
// afterwards.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
