package apps

import (
	"fmt"

	"numadag/internal/memory"
	"numadag/internal/rt"
)

// NewSymInv builds the symmetric (SPD) matrix inversion benchmark: the
// three-sweep tile algorithm (PLASMA's Cholesky inversion) over the lower
// triangle —
//
//  1. POTRF: A = L L^T        (Cholesky factorization)
//  2. TRTRI: L <- L^-1        (triangular inversion)
//  3. LAUUM: A^-1 = L^-T L^-1 (triangular matrix product)
//
// Each sweep is a panel-plus-trailing-update DAG; chaining three of them
// yields one of the deepest graphs in the suite. Expert distribution:
// 2D block cyclic, tasks on the owner of the tile they update.
func NewSymInv(s Scale) App {
	p := DensePreset(s)
	return App{Name: "syminv", Build: func(r *rt.Runtime) { buildSymInv(r, p) }}
}

func buildSymInv(r *rt.Runtime, p DenseParams) {
	sockets := r.Machine().Sockets()
	// Lower triangle of tiles.
	A := make([][]*memory.Region, p.NT)
	for i := 0; i < p.NT; i++ {
		A[i] = make([]*memory.Region, i+1)
		for j := 0; j <= i; j++ {
			A[i][j] = r.Mem().Alloc(fmt.Sprintf("A[%d][%d]", i, j), p.TileBytes, memory.Deferred, 0)
		}
	}
	// list is the one access list every task is submitted with (Submit
	// copies it); handing Submit acc itself would heap-allocate every call's
	// arguments.
	var list []rt.Access
	submit := func(label string, flops float64, epI, epJ int, acc ...rt.Access) {
		list = append(list[:0], acc...)
		r.Submit(rt.TaskSpec{
			Label:    label,
			Flops:    flops,
			Accesses: list,
			EPSocket: blockCyclic2D(epI, epJ, sockets),
		})
	}
	for i := 0; i < p.NT; i++ {
		for j := 0; j <= i; j++ {
			submit(fmt.Sprintf("init(%d,%d)", i, j), float64(p.TileBytes/8), i, j,
				rt.Access{Region: A[i][j], Mode: rt.Out})
		}
	}
	// Sweep 1: POTRF.
	for k := 0; k < p.NT; k++ {
		submit(fmt.Sprintf("potrf(%d)", k), panelFlops(p.TileBytes), k, k,
			rt.Access{Region: A[k][k], Mode: rt.InOut})
		for i := k + 1; i < p.NT; i++ {
			submit(fmt.Sprintf("trsm(%d,%d)", i, k), trsmFlops(p.TileBytes), i, k,
				rt.Access{Region: A[i][k], Mode: rt.InOut},
				rt.Access{Region: A[k][k], Mode: rt.In})
		}
		for i := k + 1; i < p.NT; i++ {
			submit(fmt.Sprintf("syrk(%d,%d)", i, k), trsmFlops(p.TileBytes), i, i,
				rt.Access{Region: A[i][i], Mode: rt.InOut},
				rt.Access{Region: A[i][k], Mode: rt.In})
			for j := k + 1; j < i; j++ {
				submit(fmt.Sprintf("gemm(%d,%d,%d)", i, j, k), gemmFlops(p.TileBytes), i, j,
					rt.Access{Region: A[i][j], Mode: rt.InOut},
					rt.Access{Region: A[i][k], Mode: rt.In},
					rt.Access{Region: A[j][k], Mode: rt.In})
			}
		}
	}
	// Sweep 2: TRTRI (tile lower-triangular inversion).
	for k := 0; k < p.NT; k++ {
		for i := k + 1; i < p.NT; i++ {
			submit(fmt.Sprintf("trsm_l(%d,%d)", i, k), trsmFlops(p.TileBytes), i, k,
				rt.Access{Region: A[i][k], Mode: rt.InOut},
				rt.Access{Region: A[i][i], Mode: rt.In})
			for j := k + 1; j < i; j++ {
				submit(fmt.Sprintf("gemm_t(%d,%d,%d)", i, j, k), gemmFlops(p.TileBytes), i, k,
					rt.Access{Region: A[i][k], Mode: rt.InOut},
					rt.Access{Region: A[i][j], Mode: rt.In},
					rt.Access{Region: A[j][k], Mode: rt.In})
			}
		}
		submit(fmt.Sprintf("trtri(%d)", k), panelFlops(p.TileBytes), k, k,
			rt.Access{Region: A[k][k], Mode: rt.InOut})
	}
	// Sweep 3: LAUUM (A^-1 = L^-T L^-1 over the lower triangle).
	for k := 0; k < p.NT; k++ {
		for j := 0; j < k; j++ {
			for i := k + 1; i < p.NT; i++ {
				submit(fmt.Sprintf("gemm_u(%d,%d,%d)", i, j, k), gemmFlops(p.TileBytes), k, j,
					rt.Access{Region: A[k][j], Mode: rt.InOut},
					rt.Access{Region: A[i][k], Mode: rt.In},
					rt.Access{Region: A[i][j], Mode: rt.In})
			}
			submit(fmt.Sprintf("trmm(%d,%d)", k, j), trsmFlops(p.TileBytes), k, j,
				rt.Access{Region: A[k][j], Mode: rt.InOut},
				rt.Access{Region: A[k][k], Mode: rt.In})
		}
		submit(fmt.Sprintf("lauum(%d)", k), panelFlops(p.TileBytes), k, k,
			rt.Access{Region: A[k][k], Mode: rt.InOut})
		for i := k + 1; i < p.NT; i++ {
			submit(fmt.Sprintf("syrk_u(%d,%d)", i, k), trsmFlops(p.TileBytes), k, k,
				rt.Access{Region: A[k][k], Mode: rt.InOut},
				rt.Access{Region: A[i][k], Mode: rt.In})
		}
	}
}
