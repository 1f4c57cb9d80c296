package apps

import (
	"fmt"

	"numadag/internal/memory"
	"numadag/internal/rt"
)

// NStreamParams sizes the NStream benchmark.
type NStreamParams struct {
	// Chunks is the number of array chunks (the task granularity).
	Chunks int
	// ChunkBytes is the size of one chunk of one array.
	ChunkBytes int64
	// Iters is the number of triad sweeps.
	Iters int
}

// NStreamPreset returns per-scale default sizes.
func NStreamPreset(s Scale) NStreamParams {
	switch s {
	case Tiny:
		return NStreamParams{Chunks: 8, ChunkBytes: 64 * kib, Iters: 2}
	case Small:
		return NStreamParams{Chunks: 32, ChunkBytes: 256 * kib, Iters: 6}
	default:
		return NStreamParams{Chunks: 96, ChunkBytes: 1 * mib, Iters: 24}
	}
}

// NewNStream builds the NStream benchmark: a STREAM-triad kernel
// a[j] = b[j] + s*c[j] over chunked arrays, repeated Iters times. Chunks are
// independent of each other; iterations on the same chunk serialize through
// the write to a[j]. The kernel moves three bytes streams per flop pair, so
// it is the most bandwidth-bound app in the suite — the one where the paper
// reports the largest gains for EP and RGP+LAS (~1.75x over LAS).
//
// The locality trap it sets for the LAS baseline is the initialization:
// deferred allocation places each chunk of a, b and c wherever its (randomly
// scheduled) init task happens to run, so the three chunks a task needs
// usually end up on different sockets. The expert distribution aligns all
// three arrays block-wise; RGP's partition of the first window recovers the
// same alignment from the graph structure.
func NewNStream(s Scale) App {
	p := NStreamPreset(s)
	return App{Name: "nstream", Build: func(r *rt.Runtime) { buildNStream(r, p) }}
}

func buildNStream(r *rt.Runtime, p NStreamParams) {
	sockets := r.Machine().Sockets()
	alloc := func(name string) []*memory.Region {
		a := make([]*memory.Region, p.Chunks)
		for j := range a {
			a[j] = r.Mem().Alloc(fmt.Sprintf("%s[%d]", name, j), p.ChunkBytes, memory.Deferred, 0)
		}
		return a
	}
	a, b, c := alloc("a"), alloc("b"), alloc("c")
	var acc []rt.Access // one list for every task: Submit copies it
	for j := 0; j < p.Chunks; j++ {
		owner := blockRowOwner(j, p.Chunks, sockets)
		for _, arr := range []struct {
			name string
			regs []*memory.Region
		}{{"a", a}, {"b", b}, {"c", c}} {
			acc = append(acc[:0], rt.Access{Region: arr.regs[j], Mode: rt.Out})
			r.Submit(rt.TaskSpec{
				Label:    fmt.Sprintf("init_%s(%d)", arr.name, j),
				Flops:    float64(p.ChunkBytes / 8),
				Accesses: acc,
				EPSocket: owner,
			})
		}
	}
	for it := 0; it < p.Iters; it++ {
		for j := 0; j < p.Chunks; j++ {
			acc = append(acc[:0],
				rt.Access{Region: a[j], Mode: rt.Out},
				rt.Access{Region: b[j], Mode: rt.In},
				rt.Access{Region: c[j], Mode: rt.In})
			r.Submit(rt.TaskSpec{
				Label: fmt.Sprintf("triad(%d,%d)", it, j),
				// Two flops per point: multiply and add.
				Flops:    2 * float64(p.ChunkBytes/8),
				Accesses: acc,
				EPSocket: blockRowOwner(j, p.Chunks, sockets),
			})
		}
	}
}
