package apps

import (
	"fmt"

	"numadag/internal/rt"
)

// The WithParams constructors expose each generator with explicit problem
// sizes, for experiments beyond the three presets. They validate eagerly so
// a bad sweep configuration fails before any simulation time is spent: each
// checks its parameter ranges (Validate), then computes the benchmark's
// exact task count and region bytes and rejects a size above MaxTasks or
// MaxBytes. That check is per benchmark, not per parameter type, because
// benchmarks sharing a type differ in size: QR and SymInv submit different
// tasks, and Jacobi keeps two grids where the in-place stencils keep one.

// MaxTasks caps the task count of any generated or imported graph, and
// MaxBytes the summed bytes of its regions. Every generator computes both
// from its parameters before building anything and returns an error above
// a cap, so no spec can ask for an unbounded build. The largest graph a
// golden, example or benchmark uses has 13121 tasks (forkjoin at paper
// scale). The simulator keeps one page-table entry per 4 KiB page, so
// MaxBytes bounds that host memory at 32 MiB per build.
const (
	MaxTasks = 1 << 18
	MaxBytes = 1 << 36
)

// sat is where the size arithmetic saturates: far above both caps, yet low
// enough that parameters clamped to it can be incremented and a few
// saturated terms summed without overflowing an int64.
const sat = 1 << 50

// clamp converts a parameter to int64, clamped to sat.
func clamp[T int | int64](x T) int64 { return min(int64(x), sat) }

// mul returns the product of non-negative factors, saturated at sat.
func mul(fs ...int64) int64 {
	p := int64(1)
	for _, f := range fs {
		if f != 0 && p > sat/f {
			return sat
		}
		p *= f
	}
	return p
}

// sized returns the named benchmark once its task count and region bytes
// are within MaxTasks and MaxBytes.
func sized(name string, tasks, bytes int64, build func(*rt.Runtime)) (App, error) {
	if tasks > MaxTasks {
		return App{}, fmt.Errorf("apps: %s: more than %d tasks (MaxTasks)", name, MaxTasks)
	}
	if bytes > MaxBytes {
		return App{}, fmt.Errorf("apps: %s: regions exceed %d bytes (MaxBytes)", name, int64(MaxBytes))
	}
	return App{Name: name, Build: build}, nil
}

// size is a stencil's task count — NB² initializations plus NB² updates
// per sweep (red-black's two colors cover the grid once) — and the bytes of
// its tile grids.
func (p StencilParams) size(grids int64) (tasks, bytes int64) {
	nb := clamp(p.NB)
	return mul(nb, nb, clamp(p.Iters)+1), mul(grids, nb, nb, clamp(p.TileBytes))
}

// size is NStream's task count (three initializations and one triad per
// chunk and sweep) and its three arrays' bytes.
func (p NStreamParams) size() (tasks, bytes int64) {
	c := clamp(p.Chunks)
	return mul(c, clamp(p.Iters)+3), mul(3, c, clamp(p.ChunkBytes))
}

// size is CG's task count — four initializations per block, then per
// iteration six block tasks and two reductions — and its bytes: the matrix
// blocks, six vectors and the two scalars.
func (p CGParams) size() (tasks, bytes int64) {
	b := clamp(p.Blocks)
	tasks = mul(4, b) + mul(clamp(p.Iters), mul(6, b)+2)
	bytes = mul(b, clamp(p.ABlockBytes)) + mul(6, b, clamp(p.VecBlockBytes)) + 2*64
	return tasks, bytes
}

// size is the integral histogram's task count — NB² loads, then per frame
// NB² horizontal and NB(NB-1) vertical scan steps — and its image and
// histogram tiles' bytes.
func (p IntHistParams) size() (tasks, bytes int64) {
	nb := clamp(p.NB)
	tasks = mul(nb, nb) + mul(clamp(p.Frames), nb, 2*nb-1)
	bytes = mul(nb, nb, clamp(p.ImgTileBytes)+clamp(p.HistBytes))
	return tasks, bytes
}

// qrSize is tiled QR's task count — NT² initializations, then per panel k
// with m = NT-k-1 trailing tiles one GEQRT, m UNMQR, m TSQRT and m² TSMQR,
// (m+1)² in all — and its A and T tiles' bytes.
func (p DenseParams) qrSize() (tasks, bytes int64) {
	n, tile := clamp(p.NT), clamp(p.TileBytes)
	tasks = mul(n, n) + mul(n, n+1, 2*n+1)/6
	return tasks, mul(n, n, tile+tile/8)
}

// symInvSize is SymInv's task count over the lower triangle of NT(NT+1)/2
// tiles: their initializations, then the three sweeps. With m = NT-k-1
// tiles below panel k, POTRF runs 1+2m+C(m,2) tasks at k, TRTRI 1+m+C(m,2)
// and LAUUM (k+1)(m+1); summed over k that is 3NT + 2NT(NT-1) + 2C(NT,3)
// + C(NT+1,3).
func (p DenseParams) symInvSize() (tasks, bytes int64) {
	n := clamp(p.NT)
	tri := mul(n, n+1) / 2
	tasks = tri + 3*n + mul(2, n, n-1) + mul(n, n-1, n-2)/3 + mul(n+1, n, n-1)/6
	return tasks, mul(n, n+1, clamp(p.TileBytes)) / 2
}

// Validate checks stencil parameters.
func (p StencilParams) Validate() error {
	if p.NB < 2 || p.TileBytes <= 0 || p.Iters < 1 {
		return fmt.Errorf("apps: invalid stencil params %+v", p)
	}
	return nil
}

// Validate checks NStream parameters.
func (p NStreamParams) Validate() error {
	if p.Chunks < 1 || p.ChunkBytes <= 0 || p.Iters < 1 {
		return fmt.Errorf("apps: invalid nstream params %+v", p)
	}
	return nil
}

// Validate checks CG parameters.
func (p CGParams) Validate() error {
	if p.Blocks < 2 || p.ABlockBytes <= 0 || p.VecBlockBytes <= 0 || p.Iters < 1 {
		return fmt.Errorf("apps: invalid cg params %+v", p)
	}
	return nil
}

// Validate checks integral-histogram parameters.
func (p IntHistParams) Validate() error {
	if p.NB < 2 || p.ImgTileBytes <= 0 || p.HistBytes <= 0 || p.Frames < 1 {
		return fmt.Errorf("apps: invalid inthist params %+v", p)
	}
	return nil
}

// Validate checks dense linear-algebra parameters.
func (p DenseParams) Validate() error {
	if p.NT < 2 || p.TileBytes <= 0 {
		return fmt.Errorf("apps: invalid dense params %+v", p)
	}
	return nil
}

// NewJacobiWith builds Jacobi with explicit sizes.
func NewJacobiWith(p StencilParams) (App, error) {
	if err := p.Validate(); err != nil {
		return App{}, err
	}
	tasks, bytes := p.size(2)
	return sized("jacobi", tasks, bytes, func(r *rt.Runtime) { buildJacobi(r, p) })
}

// NewRedBlackWith builds Red-Black with explicit sizes.
func NewRedBlackWith(p StencilParams) (App, error) {
	if err := p.Validate(); err != nil {
		return App{}, err
	}
	tasks, bytes := p.size(1)
	return sized("red-black", tasks, bytes, func(r *rt.Runtime) { buildRedBlack(r, p) })
}

// NewGaussSeidelWith builds Gauss-Seidel with explicit sizes.
func NewGaussSeidelWith(p StencilParams) (App, error) {
	if err := p.Validate(); err != nil {
		return App{}, err
	}
	tasks, bytes := p.size(1)
	return sized("gauss-seidel", tasks, bytes, func(r *rt.Runtime) { buildGaussSeidel(r, p) })
}

// NewNStreamWith builds NStream with explicit sizes.
func NewNStreamWith(p NStreamParams) (App, error) {
	if err := p.Validate(); err != nil {
		return App{}, err
	}
	tasks, bytes := p.size()
	return sized("nstream", tasks, bytes, func(r *rt.Runtime) { buildNStream(r, p) })
}

// NewCGWith builds conjugate gradient with explicit sizes.
func NewCGWith(p CGParams) (App, error) {
	if err := p.Validate(); err != nil {
		return App{}, err
	}
	tasks, bytes := p.size()
	return sized("cg", tasks, bytes, func(r *rt.Runtime) { buildCG(r, p) })
}

// NewIntegralHistogramWith builds the integral histogram with explicit
// sizes.
func NewIntegralHistogramWith(p IntHistParams) (App, error) {
	if err := p.Validate(); err != nil {
		return App{}, err
	}
	tasks, bytes := p.size()
	return sized("inthist", tasks, bytes, func(r *rt.Runtime) { buildIntHist(r, p) })
}

// NewQRWith builds tiled QR with explicit sizes.
func NewQRWith(p DenseParams) (App, error) {
	if err := p.Validate(); err != nil {
		return App{}, err
	}
	tasks, bytes := p.qrSize()
	return sized("qr", tasks, bytes, func(r *rt.Runtime) { buildQR(r, p) })
}

// NewSymInvWith builds symmetric matrix inversion with explicit sizes.
func NewSymInvWith(p DenseParams) (App, error) {
	if err := p.Validate(); err != nil {
		return App{}, err
	}
	tasks, bytes := p.symInvSize()
	return sized("syminv", tasks, bytes, func(r *rt.Runtime) { buildSymInv(r, p) })
}
