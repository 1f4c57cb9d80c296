package memory

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestDeferredStartsUnallocated(t *testing.T) {
	m := NewManager(4)
	r := m.Alloc("a", 64<<10, Deferred, 0)
	if r.Allocated() {
		t.Fatal("deferred region born allocated")
	}
	if got := r.AllocatedBytes(); got != 0 {
		t.Fatalf("AllocatedBytes = %d, want 0", got)
	}
	if m.UnallocatedBytes() != 64<<10 {
		t.Fatalf("UnallocatedBytes = %d", m.UnallocatedBytes())
	}
}

func TestTouchHomesAllPages(t *testing.T) {
	m := NewManager(4)
	r := m.Alloc("a", 64<<10, Deferred, 0)
	newly := r.Touch(2)
	if newly != 64<<10 {
		t.Fatalf("Touch homed %d bytes, want all %d", newly, 64<<10)
	}
	if !r.Allocated() {
		t.Fatal("region not allocated after touch")
	}
	by := r.BytesOnSocket(4)
	if by[2] != 64<<10 {
		t.Fatalf("BytesOnSocket = %v", by)
	}
	// Second touch is a no-op.
	if again := r.Touch(1); again != 0 {
		t.Fatalf("second Touch homed %d bytes", again)
	}
	if r.BytesOnSocket(4)[1] != 0 {
		t.Fatal("second touch moved pages")
	}
}

func TestInterleaveSpreadsPages(t *testing.T) {
	m := NewManager(4)
	r := m.Alloc("a", 16*DefaultPageSize, Interleave, 0)
	by := r.BytesOnSocket(4)
	for s, b := range by {
		if b != 4*DefaultPageSize {
			t.Fatalf("socket %d has %d bytes, want %d (got %v)", s, b, 4*DefaultPageSize, by)
		}
	}
}

func TestHomePlacement(t *testing.T) {
	m := NewManager(8)
	r := m.Alloc("a", 10*DefaultPageSize, Home, 5)
	by := r.BytesOnSocket(8)
	if by[5] != 10*DefaultPageSize {
		t.Fatalf("home placement scattered: %v", by)
	}
	if !r.Allocated() {
		t.Fatal("home region not allocated")
	}
}

func TestPartialLastPage(t *testing.T) {
	m := NewManager(2)
	r := m.Alloc("a", DefaultPageSize+100, Home, 1)
	if r.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", r.Pages())
	}
	if got := r.BytesOnSocket(2)[1]; got != DefaultPageSize+100 {
		t.Fatalf("bytes = %d, want %d", got, DefaultPageSize+100)
	}
}

func TestZeroByteRegion(t *testing.T) {
	m := NewManager(2)
	r := m.Alloc("empty", 0, Deferred, 0)
	if r.Pages() != 1 {
		t.Fatalf("zero-byte region has %d pages, want 1", r.Pages())
	}
	if r.Touch(0) != 0 {
		t.Fatal("touching empty region reported bytes")
	}
}

func TestTotalBytesOnSocket(t *testing.T) {
	m := NewManager(2)
	m.Alloc("a", 4*DefaultPageSize, Home, 0)
	m.Alloc("b", 6*DefaultPageSize, Home, 1)
	c := m.Alloc("c", 2*DefaultPageSize, Deferred, 0)
	c.Touch(1)
	got := m.TotalBytesOnSocket()
	if got[0] != 4*DefaultPageSize || got[1] != 8*DefaultPageSize {
		t.Fatalf("TotalBytesOnSocket = %v", got)
	}
}

func TestAllocPanics(t *testing.T) {
	m := NewManager(2)
	cases := []func(){
		func() { m.Alloc("neg", -1, Deferred, 0) },
		func() { m.Alloc("badhome", 10, Home, 2) },
		func() { m.Alloc("badhome2", 10, Home, -1) },
		func() { m.Alloc("badplacement", 10, Placement(99), 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTouchOutOfRangePanics(t *testing.T) {
	m := NewManager(2)
	r := m.Alloc("a", 10, Deferred, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("touch on socket 9 did not panic")
		}
	}()
	r.Touch(9)
}

func TestManagerConstructionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewManager(0) },
		func() { NewManagerPageSize(2, 0) },
	} {
		func() {
			defer func() { _ = recover() }()
			f()
			t.Error("invalid manager construction did not panic")
		}()
	}
}

func TestPlacementString(t *testing.T) {
	for p, want := range map[Placement]string{
		Deferred:      "deferred",
		FirstTouch:    "first-touch",
		Interleave:    "interleave",
		Home:          "home",
		Placement(42): "placement(42)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestRegionIdentity(t *testing.T) {
	m := NewManager(2)
	a := m.Alloc("a", 10, Deferred, 0)
	b := m.Alloc("b", 10, Deferred, 0)
	if a.ID() == b.ID() {
		t.Fatal("regions share an ID")
	}
	if a.Name() != "a" || b.Name() != "b" {
		t.Fatal("names lost")
	}
	if len(m.Regions()) != 2 {
		t.Fatalf("manager tracks %d regions", len(m.Regions()))
	}
}

// Property: for any size and placement, the sum of per-socket bytes plus
// unallocated bytes equals the region size.
func TestPropertyBytesConserved(t *testing.T) {
	f := func(kb uint16, placementSel uint8, touchSocket uint8) bool {
		m := NewManager(8)
		bytes := int64(kb%512) * 129 // odd sizes, partial pages
		placements := []Placement{Deferred, FirstTouch, Interleave, Home}
		p := placements[int(placementSel)%len(placements)]
		r := m.Alloc("x", bytes, p, 3)
		if touchSocket%2 == 0 {
			r.Touch(int(touchSocket) % 8)
		}
		var homed int64
		for _, b := range r.BytesOnSocket(8) {
			homed += b
		}
		return homed == r.AllocatedBytes() && homed+(r.Bytes()-r.AllocatedBytes()) == bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleave balance — no socket holds more than ceil(pages/sockets)
// pages worth of bytes.
func TestPropertyInterleaveBalanced(t *testing.T) {
	f := func(pages uint8) bool {
		m := NewManager(4)
		n := int64(pages%64) + 1
		r := m.Alloc("x", n*DefaultPageSize, Interleave, 0)
		maxPages := (n + 3) / 4
		for _, b := range r.BytesOnSocket(4) {
			if b > maxPages*DefaultPageSize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestResetReusesRegions(t *testing.T) {
	m := NewManager(2)
	a := m.Alloc("a", 10000, Deferred, 0)
	b := m.Alloc("b", 5000, Interleave, 0)
	a.Touch(1)
	m.Reset()
	if len(m.Regions()) != 0 {
		t.Fatalf("Regions() after Reset: %d, want 0", len(m.Regions()))
	}
	a2 := m.Alloc("a2", 8000, Deferred, 0)
	b2 := m.Alloc("b2", 5000, Home, 1)
	if a2 != a || b2 != b {
		t.Fatal("Alloc after Reset did not revive the pooled Region structs")
	}
	if a2.ID() != 0 || a2.Name() != "a2" || a2.Bytes() != 8000 || a2.Allocated() {
		t.Fatalf("revived region carries stale state: id=%d name=%q bytes=%d allocated=%v",
			a2.ID(), a2.Name(), a2.Bytes(), a2.Allocated())
	}
	for i := 0; i < b2.Pages(); i++ {
		if b2.HomeOfPage(i) != 1 {
			t.Fatalf("revived Home region: page %d homed on %d, want 1", i, b2.HomeOfPage(i))
		}
	}
	c := m.Alloc("c", 1000, Deferred, 0)
	if c == a || c == b {
		t.Fatal("third Alloc reused a live region")
	}
}

func TestAllocAfterResetSteadyStateAllocs(t *testing.T) {
	m := NewManager(2)
	build := func() {
		m.Reset()
		m.Alloc("x", 64<<10, Deferred, 0).Touch(0)
		m.Alloc("y", 32<<10, Interleave, 0)
		m.Alloc("z", 16<<10, Home, 1)
	}
	build() // warm the pool
	avg := testing.AllocsPerRun(20, build)
	if avg != 0 {
		t.Fatalf("Alloc after Reset allocates %v objects per op, want 0", avg)
	}
}

func TestAddBytesOnSocketMatchesBytesOnSocket(t *testing.T) {
	m := NewManager(3)
	r := m.Alloc("r", 10*DefaultPageSize+123, Interleave, 0)
	want := r.BytesOnSocket(3)
	got := make([]int64, 3)
	got[0] = 7 // accumulates on top of existing values
	r.AddBytesOnSocket(got)
	for s := range want {
		base := int64(0)
		if s == 0 {
			base = 7
		}
		if got[s] != want[s]+base {
			t.Fatalf("socket %d: got %d, want %d", s, got[s], want[s]+base)
		}
	}
}

// walkTotals recomputes a region's residency from its page table, the way
// the queries did before the per-socket totals: homed bytes per socket and
// the unallocated page count.
func walkTotals(r *Region, sockets int) ([]int64, int) {
	on := make([]int64, sockets)
	unalloc := 0
	for i := 0; i < r.Pages(); i++ {
		if h := r.HomeOfPage(i); h == Unallocated {
			unalloc++
		} else {
			on[h] += r.pageBytes(i)
		}
	}
	return on, unalloc
}

// checkTotals demands that every residency query of every live region, and
// the manager-wide sums, agree with a page walk.
func checkTotals(t *testing.T, step string, m *Manager) {
	t.Helper()
	total := make([]int64, m.Sockets())
	var unallocBytes int64
	for _, r := range m.Regions() {
		want, unalloc := walkTotals(r, m.Sockets())
		got := make([]int64, m.Sockets())
		r.AddBytesOnSocket(got)
		var homed int64
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("%s: region %q socket %d: totals %d, page walk %d", step, r.Name(), s, got[s], want[s])
			}
			homed += want[s]
			total[s] += want[s]
		}
		if r.AllocatedBytes() != homed {
			t.Fatalf("%s: region %q AllocatedBytes %d, page walk %d", step, r.Name(), r.AllocatedBytes(), homed)
		}
		if r.Allocated() != (unalloc == 0) {
			t.Fatalf("%s: region %q Allocated %v with %d unallocated pages", step, r.Name(), r.Allocated(), unalloc)
		}
		unallocBytes += r.Bytes() - homed
	}
	if got := m.TotalBytesOnSocket(); !reflect.DeepEqual(got, total) {
		t.Fatalf("%s: TotalBytesOnSocket %v, page walk %v", step, got, total)
	}
	if got := m.UnallocatedBytes(); got != unallocBytes {
		t.Fatalf("%s: UnallocatedBytes %d, page walk %d", step, got, unallocBytes)
	}
}

// TestSocketTotalsMatchPageWalk drives every operation that homes pages —
// each placement at Alloc (full and partial last pages, zero-byte regions),
// Touch and repeated Touch — and a pooled re-Alloc after Reset, checking
// the running totals against a page walk after each step.
func TestSocketTotalsMatchPageWalk(t *testing.T) {
	m := NewManager(4)
	fill := func() []*Region {
		return []*Region{
			m.Alloc("interleave", 10*DefaultPageSize+123, Interleave, 0),
			m.Alloc("interleave-exact", 8*DefaultPageSize, Interleave, 0),
			m.Alloc("home", 3*DefaultPageSize+1, Home, 2),
			m.Alloc("deferred", 5*DefaultPageSize+7, Deferred, 0),
			m.Alloc("first-touch", 2*DefaultPageSize, FirstTouch, 0),
			m.Alloc("zero-deferred", 0, Deferred, 0),
			m.Alloc("zero-interleave", 0, Interleave, 0),
			m.Alloc("zero-home", 0, Home, 3),
			m.Alloc("small", 100, Deferred, 0),
		}
	}
	rs := fill()
	checkTotals(t, "alloc", m)
	rs[3].Touch(1)
	rs[5].Touch(2)
	checkTotals(t, "touch", m)
	if rs[3].Touch(0) != 0 {
		t.Fatal("second Touch homed bytes")
	}
	checkTotals(t, "retouch", m)
	// A pooled re-Alloc revives the same structs and slab windows with
	// different shapes; nothing of the previous fill may survive.
	m.Reset()
	checkTotals(t, "reset", m)
	m.Alloc("d", 2*DefaultPageSize, Deferred, 0)
	m.Alloc("i", 20*DefaultPageSize+5, Interleave, 0)
	m.Alloc("h", DefaultPageSize, Home, 0)
	checkTotals(t, "re-alloc", m)
	fill()
	checkTotals(t, "re-fill", m)
}
