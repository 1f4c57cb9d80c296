package apps

import (
	"numadag/internal/memory"
	"numadag/internal/rt"
)

// StencilParams sizes the structured-grid benchmarks (Jacobi, Red-Black,
// Gauss-Seidel).
type StencilParams struct {
	// NB is the tile grid dimension (NB x NB tiles).
	NB int
	// TileBytes is the size of one tile.
	TileBytes int64
	// Iters is the number of sweeps.
	Iters int
}

// StencilPreset returns the per-scale default sizes.
func StencilPreset(s Scale) StencilParams {
	switch s {
	case Tiny:
		return StencilParams{NB: 4, TileBytes: 16 * kib, Iters: 2}
	case Small:
		return StencilParams{NB: 8, TileBytes: 64 * kib, Iters: 4}
	default:
		return StencilParams{NB: 16, TileBytes: 256 * kib, Iters: 12}
	}
}

// stencilFlops returns the compute work of one 5-point update over a tile:
// 4 flops per grid point (fp64 points).
func stencilFlops(tileBytes int64) float64 {
	return 4 * float64(tileBytes/8)
}

// NewJacobi builds the Jacobi benchmark: an out-of-place 5-point stencil
// ping-ponging between two tile arrays. Each task reads its tile and the
// four neighbors from the source array and overwrites its tile in the
// destination array. The expert distribution is block rows.
func NewJacobi(s Scale) App {
	p := StencilPreset(s)
	return App{Name: "jacobi", Build: func(r *rt.Runtime) { buildJacobi(r, p) }}
}

func buildJacobi(r *rt.Runtime, p StencilParams) {
	sockets := r.Machine().Sockets()
	var nm namer
	alloc2D := func(name string) [][]*memory.Region {
		a := make([][]*memory.Region, p.NB)
		for i := range a {
			a[i] = make([]*memory.Region, p.NB)
			for j := range a[i] {
				a[i][j] = r.Mem().Alloc(nm.index(name, i, j), p.TileBytes, memory.Deferred, 0)
			}
		}
		return a
	}
	src, dst := alloc2D("src"), alloc2D("dst")
	var acc []rt.Access // one list for every task: Submit copies it
	// Initialization tasks first-touch the source grid.
	for i := 0; i < p.NB; i++ {
		for j := 0; j < p.NB; j++ {
			acc = append(acc[:0], rt.Access{Region: src[i][j], Mode: rt.Out})
			r.Submit(rt.TaskSpec{
				Label:    nm.call("init", i, j),
				Flops:    float64(p.TileBytes / 8),
				Accesses: acc,
				EPSocket: blockRowOwner(i, p.NB, sockets),
			})
		}
	}
	for it := 0; it < p.Iters; it++ {
		for i := 0; i < p.NB; i++ {
			for j := 0; j < p.NB; j++ {
				acc = append(acc[:0],
					rt.Access{Region: dst[i][j], Mode: rt.Out},
					rt.Access{Region: src[i][j], Mode: rt.In})
				for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
					ni, nj := i+d[0], j+d[1]
					if ni >= 0 && ni < p.NB && nj >= 0 && nj < p.NB {
						acc = append(acc, rt.Access{Region: src[ni][nj], Mode: rt.In})
					}
				}
				r.Submit(rt.TaskSpec{
					Label:    nm.call("jacobi", it, i, j),
					Flops:    stencilFlops(p.TileBytes),
					Accesses: acc,
					EPSocket: blockRowOwner(i, p.NB, sockets),
				})
			}
		}
		src, dst = dst, src
	}
}

// NewRedBlack builds the Red-Black Gauss-Seidel benchmark: an in-place
// 5-point stencil over a single array in two half-sweeps per iteration —
// first the "red" tiles (i+j even) update reading their black neighbors,
// then the black tiles. Expert distribution is block rows.
func NewRedBlack(s Scale) App {
	p := StencilPreset(s)
	return App{Name: "red-black", Build: func(r *rt.Runtime) { buildRedBlack(r, p) }}
}

func buildRedBlack(r *rt.Runtime, p StencilParams) {
	sockets := r.Machine().Sockets()
	var nm namer
	u := make([][]*memory.Region, p.NB)
	for i := range u {
		u[i] = make([]*memory.Region, p.NB)
		for j := range u[i] {
			u[i][j] = r.Mem().Alloc(nm.index("u", i, j), p.TileBytes, memory.Deferred, 0)
		}
	}
	var acc []rt.Access // one list for every task: Submit copies it
	for i := 0; i < p.NB; i++ {
		for j := 0; j < p.NB; j++ {
			acc = append(acc[:0], rt.Access{Region: u[i][j], Mode: rt.Out})
			r.Submit(rt.TaskSpec{
				Label:    nm.call("init", i, j),
				Flops:    float64(p.TileBytes / 8),
				Accesses: acc,
				EPSocket: blockRowOwner(i, p.NB, sockets),
			})
		}
	}
	for it := 0; it < p.Iters; it++ {
		for _, color := range []int{0, 1} {
			for i := 0; i < p.NB; i++ {
				for j := 0; j < p.NB; j++ {
					if (i+j)%2 != color {
						continue
					}
					acc = append(acc[:0], rt.Access{Region: u[i][j], Mode: rt.InOut})
					for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
						ni, nj := i+d[0], j+d[1]
						if ni >= 0 && ni < p.NB && nj >= 0 && nj < p.NB {
							acc = append(acc, rt.Access{Region: u[ni][nj], Mode: rt.In})
						}
					}
					r.Submit(rt.TaskSpec{
						Label:    nm.call("rb", it, color, i, j),
						Flops:    stencilFlops(p.TileBytes),
						Accesses: acc,
						EPSocket: blockRowOwner(i, p.NB, sockets),
					})
				}
			}
		}
	}
}

// NewGaussSeidel builds the Gauss-Seidel benchmark: an in-place 5-point
// stencil swept in row-major order, so the dependence tracker derives the
// classic diagonal wavefront (each tile reads already-updated west/north
// neighbors of the same sweep and stale east/south values). Expert
// distribution is block rows.
func NewGaussSeidel(s Scale) App {
	p := StencilPreset(s)
	return App{Name: "gauss-seidel", Build: func(r *rt.Runtime) { buildGaussSeidel(r, p) }}
}

func buildGaussSeidel(r *rt.Runtime, p StencilParams) {
	sockets := r.Machine().Sockets()
	var nm namer
	u := make([][]*memory.Region, p.NB)
	for i := range u {
		u[i] = make([]*memory.Region, p.NB)
		for j := range u[i] {
			u[i][j] = r.Mem().Alloc(nm.index("u", i, j), p.TileBytes, memory.Deferred, 0)
		}
	}
	var acc []rt.Access // one list for every task: Submit copies it
	for i := 0; i < p.NB; i++ {
		for j := 0; j < p.NB; j++ {
			acc = append(acc[:0], rt.Access{Region: u[i][j], Mode: rt.Out})
			r.Submit(rt.TaskSpec{
				Label:    nm.call("init", i, j),
				Flops:    float64(p.TileBytes / 8),
				Accesses: acc,
				EPSocket: blockRowOwner(i, p.NB, sockets),
			})
		}
	}
	for it := 0; it < p.Iters; it++ {
		for i := 0; i < p.NB; i++ {
			for j := 0; j < p.NB; j++ {
				acc = append(acc[:0], rt.Access{Region: u[i][j], Mode: rt.InOut})
				for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
					ni, nj := i+d[0], j+d[1]
					if ni >= 0 && ni < p.NB && nj >= 0 && nj < p.NB {
						acc = append(acc, rt.Access{Region: u[ni][nj], Mode: rt.In})
					}
				}
				r.Submit(rt.TaskSpec{
					Label:    nm.call("gs", it, i, j),
					Flops:    stencilFlops(p.TileBytes),
					Accesses: acc,
					EPSocket: blockRowOwner(i, p.NB, sockets),
				})
			}
		}
	}
}
