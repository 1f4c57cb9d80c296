// Package memory models NUMA page placement for the simulated machine.
//
// Applications declare named Regions (a tile of a matrix, a chunk of a
// stream array). A region is a run of pages; each page has a home socket or
// is still unallocated. The placement policies mirror what the paper's
// runtimes rely on:
//
//   - FirstTouch: Linux's default — a page is homed on the socket of the
//     first core that writes it.
//   - Interleave: pages round-robin across sockets (numactl --interleave).
//   - Home: explicit placement on one socket (numactl --membind, or the
//     expert programmer's distribution).
//   - Deferred: the allocation is postponed until the runtime knows where
//     the producing task will run (Drebes et al.'s deferred allocation,
//     the cornerstone of LAS); the first Touch then homes all pages at once.
//
// Every region keeps two running totals next to its page table: the bytes
// homed on each socket and the number of pages still unallocated. Alloc,
// and Touch (the only operations that home pages) update them, so
// the scheduler's residency query ("where does this task's data live?",
// asked on every LAS pick and in every read and write phase) costs
// O(sockets) per region instead of a page walk, and Allocated is O(1). The
// per-socket totals of all regions live in one slab owned by the Manager
// (region i owns entries [i*sockets, (i+1)*sockets)), so a pooled Manager
// re-filled by the next run allocates nothing for them. The page table
// (homes) stays the page-level record the totals summarize.
package memory

import (
	"fmt"

	"numadag/internal/names"
)

// DefaultPageSize is the simulated page granularity (4 KiB, as on the
// paper's Linux testbed).
const DefaultPageSize = 4096

// Placement selects how a region's pages are homed.
type Placement int

const (
	// Deferred leaves pages unallocated until first touch; the touching
	// socket becomes the home of every still-unallocated page.
	Deferred Placement = iota
	// FirstTouch behaves like Deferred in the simulator (pages are homed on
	// first touch); it exists as a distinct label because policies treat
	// "OS default" and "runtime-deferred" allocations differently in
	// statistics.
	FirstTouch
	// Interleave homes page i on socket i mod sockets at creation.
	Interleave
	// Home homes every page on a fixed socket at creation.
	Home
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case Deferred:
		return "deferred"
	case FirstTouch:
		return "first-touch"
	case Interleave:
		return "interleave"
	case Home:
		return "home"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Unallocated marks a page with no home yet.
const Unallocated = int16(-1)

// Region is a contiguous, named allocation whose pages may live on
// different sockets.
type Region struct {
	id    int
	bytes int64
	// homes[i] is the socket of page i, or Unallocated.
	homes []int16
	// unalloc counts the pages of homes that are Unallocated.
	unalloc   int
	pageSize  int64
	placement Placement
	mgr       *Manager
}

// ID returns the region's dense identifier within its Manager.
func (r *Region) ID() int { return r.id }

// Name returns the diagnostic name: a copy, which stays valid after the
// manager is Reset. Only traces, exports and error paths read names.
func (r *Region) Name() string { return r.mgr.names.Get(r.id) }

// Bytes returns the region size.
func (r *Region) Bytes() int64 { return r.bytes }

// Pages returns the number of pages. The simulator reads the page table
// directly; Pages is facade API for custom builders (numadag.Region
// aliases Region).
func (r *Region) Pages() int { return len(r.homes) }

// Placement returns the placement policy the region was created with.
func (r *Region) Placement() Placement { return r.placement }

// Allocated reports whether every page has a home.
func (r *Region) Allocated() bool { return r.unalloc == 0 }

// onSocket returns the region's per-socket homed bytes: its window of the
// manager's slab, valid until the manager's next Alloc.
func (r *Region) onSocket() []int64 {
	s := r.mgr.sockets
	return r.mgr.homed[r.id*s : (r.id+1)*s : (r.id+1)*s]
}

// HomeOfPage returns the home socket of page i, or Unallocated.
func (r *Region) HomeOfPage(i int) int16 { return r.homes[i] }

// BytesOnSocket returns, per socket, the bytes of this region homed there.
// Unallocated bytes are not counted.
func (r *Region) BytesOnSocket(sockets int) []int64 {
	out := make([]int64, sockets)
	r.AddBytesOnSocket(out)
	return out
}

// AddBytesOnSocket accumulates, per socket, the bytes of this region homed
// there into out, whose length must cover every socket. It is the
// allocation-free form of BytesOnSocket for schedulers that query residency
// once per task.
func (r *Region) AddBytesOnSocket(out []int64) {
	for s, b := range r.onSocket() {
		out[s] += b
	}
}

// pageBytes returns the size of page i (the last page may be partial, and
// the placeholder page of a zero-byte region is empty).
func (r *Region) pageBytes(i int) int64 {
	if r.bytes == 0 {
		return 0
	}
	if i == len(r.homes)-1 {
		if rem := r.bytes % r.pageSize; rem != 0 {
			return rem
		}
	}
	return r.pageSize
}

// Touch homes every still-unallocated page of the region on the given
// socket (first-touch semantics) and returns the number of bytes newly
// homed. Touching a fully allocated region is a cheap no-op.
func (r *Region) Touch(socket int) int64 {
	if socket < 0 || socket >= r.mgr.sockets {
		panic(fmt.Sprintf("memory: touch on socket %d of %d", socket, r.mgr.sockets))
	}
	if r.unalloc == 0 {
		return 0
	}
	var newly int64
	for i, h := range r.homes {
		if h == Unallocated {
			r.homes[i] = int16(socket)
			newly += r.pageBytes(i)
		}
	}
	r.onSocket()[socket] += newly
	r.unalloc = 0
	return newly
}

// Manager owns the regions of one simulated application run. A Manager can
// be Reset and refilled: the Region structs, their page tables and the
// bytes of their names are kept across resets, so a pooled runtime
// re-running the same workload shape allocates no region state after the
// first run.
type Manager struct {
	sockets  int
	pageSize int64
	regions  []*Region
	// names holds region i's name as its name i.
	names names.List
	// pool holds every Region struct ever created, in ID order; regions is
	// always pool[:n]. Reset just truncates, and Alloc revives pool entries
	// (reusing their homes tables) before allocating fresh ones.
	pool []*Region
	// homed is the per-socket homed-bytes slab: region i's totals are
	// homed[i*sockets : (i+1)*sockets], and len(homed) is always
	// len(regions)*sockets.
	homed []int64
}

// NewManager creates a Manager for a machine with the given socket count
// and the default page size.
func NewManager(sockets int) *Manager {
	return NewManagerPageSize(sockets, DefaultPageSize)
}

// NewManagerPageSize creates a Manager with an explicit page size.
func NewManagerPageSize(sockets int, pageSize int64) *Manager {
	if sockets <= 0 {
		panic(fmt.Sprintf("memory: %d sockets", sockets))
	}
	if pageSize <= 0 {
		panic(fmt.Sprintf("memory: page size %d", pageSize))
	}
	return &Manager{sockets: sockets, pageSize: pageSize}
}

// Sockets returns the socket count the manager was created with.
func (m *Manager) Sockets() int { return m.sockets }

// PageSize returns the page granularity.
func (m *Manager) PageSize() int64 { return m.pageSize }

// Regions returns all regions in creation order. The returned slice is the
// manager's own; callers must not mutate it.
func (m *Manager) Regions() []*Region { return m.regions }

// Alloc creates a region of the given size under the placement policy.
// homeSocket is only used by Home (pass 0 otherwise). Zero-byte regions are
// legal and occupy one (empty) page so they still have an identity. Alloc
// only borrows name for the call, as rt.Runtime.Submit borrows a task's
// label and access list: the manager copies its bytes into storage it
// keeps, so a builder may pass a view of one buffer it refills for every
// region.
func (m *Manager) Alloc(name string, bytes int64, placement Placement, homeSocket int) *Region {
	if bytes < 0 {
		panic(fmt.Sprintf("memory: alloc %q of %d bytes", name, bytes))
	}
	switch placement {
	case Deferred, FirstTouch, Interleave:
	case Home:
		if homeSocket < 0 || homeSocket >= m.sockets {
			panic(fmt.Sprintf("memory: home socket %d of %d", homeSocket, m.sockets))
		}
	default:
		panic(fmt.Sprintf("memory: unknown placement %v", placement))
	}
	nPages := int((bytes + m.pageSize - 1) / m.pageSize)
	if nPages == 0 {
		nPages = 1
	}
	id := len(m.regions)
	var r *Region
	var homes []int16
	if id < len(m.pool) {
		r = m.pool[id]
		if cap(r.homes) >= nPages {
			homes = r.homes[:nPages]
		}
	} else {
		r = &Region{}
		m.pool = append(m.pool, r)
	}
	if homes == nil {
		homes = make([]int16, nPages)
	}
	m.names.Add(name)
	*r = Region{
		id:        id,
		bytes:     bytes,
		homes:     homes,
		pageSize:  m.pageSize,
		placement: placement,
		mgr:       m,
	}
	if end := (id + 1) * m.sockets; end <= cap(m.homed) {
		m.homed = m.homed[:end]
		clear(m.homed[id*m.sockets:])
	} else {
		m.homed = append(make([]int64, 0, 2*end), m.homed[:id*m.sockets]...)[:end]
	}
	on := r.onSocket()
	switch placement {
	case Deferred, FirstTouch:
		for i := range r.homes {
			r.homes[i] = Unallocated
		}
		r.unalloc = nPages
	case Interleave:
		for i := range r.homes {
			r.homes[i] = int16(i % m.sockets)
			on[i%m.sockets] += r.pageBytes(i)
		}
	case Home:
		for i := range r.homes {
			r.homes[i] = int16(homeSocket)
		}
		on[homeSocket] = bytes
	}
	m.regions = m.pool[:id+1]
	return r
}

// Reset discards every region while keeping their structs, page tables
// and name bytes pooled for reuse by subsequent Allocs. Region pointers
// handed out before the reset are recycled by those later Allocs and must
// not be retained; a name Name returned stays valid.
func (m *Manager) Reset() {
	m.regions = m.pool[:0]
	m.homed = m.homed[:0]
	m.names.Reset()
}

// CopyNames makes dst a copy of the regions' names, in ID order (see
// names.List.CopyFrom): the form a runtime snapshot keeps them in.
func (m *Manager) CopyNames(dst *names.List) { dst.CopyFrom(&m.names) }
