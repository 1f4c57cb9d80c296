package apps

import (
	"math"

	"numadag/internal/memory"
	"numadag/internal/rt"
)

// DenseParams sizes the dense tiled linear-algebra benchmarks (QR,
// symmetric matrix inversion).
type DenseParams struct {
	// NT is the tile grid dimension (NT x NT tiles).
	NT int
	// TileBytes is the size of one square tile.
	TileBytes int64
}

// DensePreset returns per-scale default sizes.
func DensePreset(s Scale) DenseParams {
	switch s {
	case Tiny:
		return DenseParams{NT: 4, TileBytes: 32 * kib}
	case Small:
		return DenseParams{NT: 8, TileBytes: 64 * kib}
	default:
		return DenseParams{NT: 22, TileBytes: 96 * kib}
	}
}

// tileSide returns the tile dimension n for an n x n fp64 tile.
func tileSide(tileBytes int64) float64 {
	return math.Sqrt(float64(tileBytes / 8))
}

// Tile kernel costs (classic LAPACK flop counts, n = tile side):
//
//	GEMM-class updates   2n^3
//	TRSM/TSQRT/UNMQR-class  n^3..(4/3)n^3 — approximated as n^3
//	Panel kernels (GEQRT/POTRF)  ~(2/3..4/3)n^3 — approximated as n^3
func gemmFlops(tileBytes int64) float64  { n := tileSide(tileBytes); return 2 * n * n * n }
func trsmFlops(tileBytes int64) float64  { n := tileSide(tileBytes); return n * n * n }
func panelFlops(tileBytes int64) float64 { n := tileSide(tileBytes); return n * n * n }

// NewQR builds the tiled Householder QR factorization (Buttari et al.'s
// tile algorithm, the one the OmpSs benchmark implements):
//
//	for k in 0..NT-1:
//	  GEQRT(k,k)                     panel factorization
//	  UNMQR(k,j)  for j > k          apply V(k,k) to row k
//	  TSQRT(i,k)  for i > k          fold tile (i,k) into the panel
//	  TSMQR(i,j,k) for i > k, j > k  trailing update
//
// Tiles are compute-dense (O(n^3) flops over O(n^2) bytes), so QR is the
// least NUMA-sensitive app of the suite. Expert distribution: 2D block
// cyclic owners, tasks placed on the owner of the tile they update.
func NewQR(s Scale) App {
	p := DensePreset(s)
	return App{Name: "qr", Build: func(r *rt.Runtime) { buildQR(r, p) }}
}

func buildQR(r *rt.Runtime, p DenseParams) {
	sockets := r.Machine().Sockets()
	var nm namer
	A := make([][]*memory.Region, p.NT)
	T := make([][]*memory.Region, p.NT)
	for i := 0; i < p.NT; i++ {
		A[i] = make([]*memory.Region, p.NT)
		T[i] = make([]*memory.Region, p.NT)
		for j := 0; j < p.NT; j++ {
			A[i][j] = r.Mem().Alloc(nm.index("A", i, j), p.TileBytes, memory.Deferred, 0)
			// T factors are narrow (ib x n): a fraction of a tile.
			T[i][j] = r.Mem().Alloc(nm.index("T", i, j), p.TileBytes/8, memory.Deferred, 0)
		}
	}
	var acc []rt.Access // one list for every task: Submit copies it
	for i := 0; i < p.NT; i++ {
		for j := 0; j < p.NT; j++ {
			acc = append(acc[:0], rt.Access{Region: A[i][j], Mode: rt.Out})
			r.Submit(rt.TaskSpec{
				Label:    nm.call("init", i, j),
				Flops:    float64(p.TileBytes / 8),
				Accesses: acc,
				EPSocket: blockCyclic2D(i, j, sockets),
			})
		}
	}
	for k := 0; k < p.NT; k++ {
		acc = append(acc[:0],
			rt.Access{Region: A[k][k], Mode: rt.InOut},
			rt.Access{Region: T[k][k], Mode: rt.Out})
		r.Submit(rt.TaskSpec{
			Label:    nm.call("geqrt", k),
			Flops:    panelFlops(p.TileBytes),
			Accesses: acc,
			EPSocket: blockCyclic2D(k, k, sockets),
		})
		for j := k + 1; j < p.NT; j++ {
			acc = append(acc[:0],
				rt.Access{Region: A[k][j], Mode: rt.InOut},
				rt.Access{Region: A[k][k], Mode: rt.In},
				rt.Access{Region: T[k][k], Mode: rt.In})
			r.Submit(rt.TaskSpec{
				Label:    nm.call("unmqr", k, j),
				Flops:    trsmFlops(p.TileBytes),
				Accesses: acc,
				EPSocket: blockCyclic2D(k, j, sockets),
			})
		}
		for i := k + 1; i < p.NT; i++ {
			acc = append(acc[:0],
				rt.Access{Region: A[k][k], Mode: rt.InOut},
				rt.Access{Region: A[i][k], Mode: rt.InOut},
				rt.Access{Region: T[i][k], Mode: rt.Out})
			r.Submit(rt.TaskSpec{
				Label:    nm.call("tsqrt", i, k),
				Flops:    trsmFlops(p.TileBytes),
				Accesses: acc,
				EPSocket: blockCyclic2D(i, k, sockets),
			})
			for j := k + 1; j < p.NT; j++ {
				acc = append(acc[:0],
					rt.Access{Region: A[k][j], Mode: rt.InOut},
					rt.Access{Region: A[i][j], Mode: rt.InOut},
					rt.Access{Region: A[i][k], Mode: rt.In},
					rt.Access{Region: T[i][k], Mode: rt.In})
				r.Submit(rt.TaskSpec{
					Label:    nm.call("tsmqr", i, j, k),
					Flops:    gemmFlops(p.TileBytes),
					Accesses: acc,
					EPSocket: blockCyclic2D(i, j, sockets),
				})
			}
		}
	}
}
