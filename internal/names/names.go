// Package names keeps the names of a task graph — task labels, region
// names — as bytes in one array their owner reuses, instead of one string
// each, so that building a graph allocates no string per task.
//
// Names are written once, at build time, and read only by traces, exports
// and error paths, so a List stores them back to back and hands out
// copies. A builder formats every name into one buffer of its own and
// passes a View of it to the call that stores the name; the call copies the
// bytes before it returns.
package names

import (
	"slices"
	"unsafe"
)

// List is a list of names stored back to back in one byte array. The zero
// value is an empty list. Reset empties it and keeps its storage, so a
// list refilled with names no longer than before allocates nothing.
type List struct {
	buf []byte
	end []int // name i is buf[end[i-1]:end[i]], from 0 for name 0
}

// Len returns the number of names.
func (l *List) Len() int { return len(l.end) }

// Add appends a copy of s's bytes as the next name, so s may be a View of
// a buffer the caller refills.
func (l *List) Add(s string) {
	l.buf = append(l.buf, s...)
	l.end = append(l.end, len(l.buf))
}

// Get returns name i: a copy, which keeps its value after the list is
// Reset and refilled.
func (l *List) Get(i int) string { return string(l.bytes(i)) }

// View returns name i without copying it, for a call that only borrows it
// (see the function View): it changes when the list is Reset and refilled.
func (l *List) View(i int) string { return View(l.bytes(i)) }

func (l *List) bytes(i int) []byte {
	start := 0
	if i > 0 {
		start = l.end[i-1]
	}
	return l.buf[start:l.end[i]]
}

// Grow makes room for n more names of size bytes in all, so that adding
// them allocates nothing.
func (l *List) Grow(n, size int) {
	l.buf = slices.Grow(l.buf, size)
	l.end = slices.Grow(l.end, n)
}

// Reset empties the list and keeps its storage for the next names.
func (l *List) Reset() { l.buf, l.end = l.buf[:0], l.end[:0] }

// CopyFrom makes l a copy of src, in l's own storage: reused when large
// enough, and reallocated at exactly the size src needs when not. src is
// only read; l must be another list.
func (l *List) CopyFrom(src *List) {
	l.buf = append(fit(l.buf, len(src.buf)), src.buf...)
	l.end = append(fit(l.end, len(src.end)), src.end...)
}

// fit returns s emptied, with room for n elements: s itself when its
// capacity suffices, else a new array of exactly n.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// View returns a string that shares b's bytes instead of copying them, for
// a name the callee only borrows: a task label passed to the runtime's
// Submit, or a region name passed to the memory manager's Alloc, both of
// which copy it into a List before they return. So a builder formats each
// name into one buffer and passes a view of it. The string changes whenever
// b does: format a name right before the call that takes it, and never keep
// the string past that call. It is the only use of unsafe in the module.
func View(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
