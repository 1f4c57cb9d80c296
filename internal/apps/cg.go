package apps

import (
	"fmt"

	"numadag/internal/memory"
	"numadag/internal/rt"
)

// CGParams sizes the conjugate gradient benchmark.
type CGParams struct {
	// Blocks is the number of row blocks of the banded system.
	Blocks int
	// ABlockBytes is the size of one matrix row block (the heavy stream).
	ABlockBytes int64
	// VecBlockBytes is the size of one vector block.
	VecBlockBytes int64
	// Iters is the number of CG iterations.
	Iters int
}

// CGPreset returns per-scale default sizes.
func CGPreset(s Scale) CGParams {
	switch s {
	case Tiny:
		return CGParams{Blocks: 4, ABlockBytes: 128 * kib, VecBlockBytes: 32 * kib, Iters: 2}
	case Small:
		return CGParams{Blocks: 16, ABlockBytes: 512 * kib, VecBlockBytes: 64 * kib, Iters: 4}
	default:
		return CGParams{Blocks: 64, ABlockBytes: 1 * mib, VecBlockBytes: 128 * kib, Iters: 10}
	}
}

// NewCG builds the conjugate gradient benchmark on a block-tridiagonal
// (banded) SPD system: each iteration performs a blocked SpMV (each row
// block reads its matrix block and three neighboring p blocks), two global
// dot-product reductions through small scalar regions, and the blocked
// vector updates. The reductions make CG the most synchronization-heavy app
// in the suite. Expert distribution is block rows.
func NewCG(s Scale) App {
	p := CGPreset(s)
	return App{Name: "cg", Build: func(r *rt.Runtime) { buildCG(r, p) }}
}

func buildCG(r *rt.Runtime, p CGParams) {
	sockets := r.Machine().Sockets()
	allocVec := func(name string) []*memory.Region {
		v := make([]*memory.Region, p.Blocks)
		for i := range v {
			v[i] = r.Mem().Alloc(fmt.Sprintf("%s[%d]", name, i), p.VecBlockBytes, memory.Deferred, 0)
		}
		return v
	}
	A := make([]*memory.Region, p.Blocks)
	for i := range A {
		A[i] = r.Mem().Alloc(fmt.Sprintf("A[%d]", i), p.ABlockBytes, memory.Deferred, 0)
	}
	x, rr, pp, q := allocVec("x"), allocVec("r"), allocVec("p"), allocVec("q")
	pd1, pd2 := allocVec("pd1"), allocVec("pd2")
	// Scalars travel through small regions; every block task of the next
	// phase reads them (the broadcast after the reduction).
	alpha := r.Mem().Alloc("alpha", 64, memory.Deferred, 0)
	beta := r.Mem().Alloc("beta", 64, memory.Deferred, 0)

	vecFlops := float64(p.VecBlockBytes / 8)
	spmvFlops := 2 * float64(p.ABlockBytes/8) // 2 flops per matrix entry

	var acc []rt.Access // one list for every task: Submit copies it
	for i := 0; i < p.Blocks; i++ {
		owner := blockRowOwner(i, p.Blocks, sockets)
		acc = append(acc[:0], rt.Access{Region: A[i], Mode: rt.Out})
		r.Submit(rt.TaskSpec{Label: fmt.Sprintf("init_A(%d)", i),
			Flops:    float64(p.ABlockBytes / 8),
			Accesses: acc, EPSocket: owner})
		for _, v := range []struct {
			n string
			r *memory.Region
		}{{"x", x[i]}, {"r", rr[i]}, {"p", pp[i]}} {
			acc = append(acc[:0], rt.Access{Region: v.r, Mode: rt.Out})
			r.Submit(rt.TaskSpec{Label: fmt.Sprintf("init_%s(%d)", v.n, i),
				Flops:    vecFlops,
				Accesses: acc, EPSocket: owner})
		}
	}
	for it := 0; it < p.Iters; it++ {
		// q = A p (banded: each block reads p[i-1], p[i], p[i+1]).
		for i := 0; i < p.Blocks; i++ {
			acc = append(acc[:0],
				rt.Access{Region: q[i], Mode: rt.Out},
				rt.Access{Region: A[i], Mode: rt.In},
				rt.Access{Region: pp[i], Mode: rt.In})
			if i > 0 {
				acc = append(acc, rt.Access{Region: pp[i-1], Mode: rt.In})
			}
			if i+1 < p.Blocks {
				acc = append(acc, rt.Access{Region: pp[i+1], Mode: rt.In})
			}
			r.Submit(rt.TaskSpec{Label: fmt.Sprintf("spmv(%d,%d)", it, i),
				Flops: spmvFlops, Accesses: acc,
				EPSocket: blockRowOwner(i, p.Blocks, sockets)})
		}
		// alpha = rr / (p . q): block partials then one reduction.
		for i := 0; i < p.Blocks; i++ {
			acc = append(acc[:0],
				rt.Access{Region: pd1[i], Mode: rt.Out},
				rt.Access{Region: pp[i], Mode: rt.In},
				rt.Access{Region: q[i], Mode: rt.In})
			r.Submit(rt.TaskSpec{Label: fmt.Sprintf("dot1(%d,%d)", it, i),
				Flops: 2 * vecFlops, Accesses: acc,
				EPSocket: blockRowOwner(i, p.Blocks, sockets)})
		}
		acc = append(acc[:0], rt.Access{Region: alpha, Mode: rt.Out})
		for i := 0; i < p.Blocks; i++ {
			acc = append(acc, rt.Access{Region: pd1[i], Mode: rt.In})
		}
		r.Submit(rt.TaskSpec{Label: fmt.Sprintf("reduce1(%d)", it),
			Flops: float64(p.Blocks), Accesses: acc, EPSocket: 0})
		// x += alpha p ; r -= alpha q.
		for i := 0; i < p.Blocks; i++ {
			owner := blockRowOwner(i, p.Blocks, sockets)
			acc = append(acc[:0],
				rt.Access{Region: x[i], Mode: rt.InOut},
				rt.Access{Region: pp[i], Mode: rt.In},
				rt.Access{Region: alpha, Mode: rt.In})
			r.Submit(rt.TaskSpec{Label: fmt.Sprintf("axpy_x(%d,%d)", it, i),
				Flops: 2 * vecFlops, Accesses: acc, EPSocket: owner})
			acc = append(acc[:0],
				rt.Access{Region: rr[i], Mode: rt.InOut},
				rt.Access{Region: q[i], Mode: rt.In},
				rt.Access{Region: alpha, Mode: rt.In})
			r.Submit(rt.TaskSpec{Label: fmt.Sprintf("axpy_r(%d,%d)", it, i),
				Flops: 2 * vecFlops, Accesses: acc, EPSocket: owner})
		}
		// beta = (r'.r') / (r.r): partials + reduction.
		for i := 0; i < p.Blocks; i++ {
			acc = append(acc[:0],
				rt.Access{Region: pd2[i], Mode: rt.Out},
				rt.Access{Region: rr[i], Mode: rt.In})
			r.Submit(rt.TaskSpec{Label: fmt.Sprintf("dot2(%d,%d)", it, i),
				Flops: 2 * vecFlops, Accesses: acc,
				EPSocket: blockRowOwner(i, p.Blocks, sockets)})
		}
		acc = append(acc[:0], rt.Access{Region: beta, Mode: rt.Out})
		for i := 0; i < p.Blocks; i++ {
			acc = append(acc, rt.Access{Region: pd2[i], Mode: rt.In})
		}
		r.Submit(rt.TaskSpec{Label: fmt.Sprintf("reduce2(%d)", it),
			Flops: float64(p.Blocks), Accesses: acc, EPSocket: 0})
		// p = r + beta p.
		for i := 0; i < p.Blocks; i++ {
			acc = append(acc[:0],
				rt.Access{Region: pp[i], Mode: rt.InOut},
				rt.Access{Region: rr[i], Mode: rt.In},
				rt.Access{Region: beta, Mode: rt.In})
			r.Submit(rt.TaskSpec{Label: fmt.Sprintf("update_p(%d,%d)", it, i),
				Flops: 2 * vecFlops, Accesses: acc,
				EPSocket: blockRowOwner(i, p.Blocks, sockets)})
		}
	}
}
