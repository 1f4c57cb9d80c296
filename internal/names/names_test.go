package names

import (
	"strconv"
	"testing"
)

// fill resets l and adds n names "<prefix><i>", each formatted into buf
// and passed as a View of it, as the runtime's builders do. It returns the
// buffer for the next fill.
func fill(l *List, buf []byte, prefix string, n int) []byte {
	l.Reset()
	for i := 0; i < n; i++ {
		buf = strconv.AppendInt(append(buf[:0], prefix...), int64(i), 10)
		l.Add(View(buf))
	}
	return buf
}

// TestListKeepsCopies pins the List contract: Add copies a borrowed view's
// bytes, Get returns copies that keep their value after the list is Reset
// and refilled, CopyFrom makes a copy that keeps its value after its source
// is refilled, and a refill or copy no larger than before allocates
// nothing.
func TestListKeepsCopies(t *testing.T) {
	var l, dst List
	buf := fill(&l, nil, "task", 300)
	if l.Len() != 300 {
		t.Fatalf("Len %d, want 300", l.Len())
	}
	got := make([]string, l.Len())
	for i := range got {
		got[i] = l.Get(i)
		if want := "task" + strconv.Itoa(i); got[i] != want || l.View(i) != want {
			t.Fatalf("name %d: Get %q, View %q, want %q", i, got[i], l.View(i), want)
		}
	}
	dst.CopyFrom(&l)
	buf = fill(&l, buf, "x", 40) // shorter names, in the same storage
	for i, g := range got {
		if want := "task" + strconv.Itoa(i); g != want || dst.Get(i) != want {
			t.Fatalf("name %d after a refill: kept %q, copy %q, want %q", i, g, dst.Get(i), want)
		}
	}
	if l.Len() != 40 || l.Get(39) != "x39" || dst.Len() != 300 {
		t.Fatalf("refilled list has %d names ending %q, copy %d", l.Len(), l.Get(l.Len()-1), dst.Len())
	}
	if avg := testing.AllocsPerRun(20, func() {
		buf = fill(&l, buf, "task", 300)
		dst.CopyFrom(&l)
	}); avg != 0 {
		t.Fatalf("refill and copy allocate %v objects, want 0", avg)
	}
}
