// Package apps provides the eight task-based benchmarks of the paper's
// evaluation (Figure 1) as task-graph generators: conjugate gradient,
// Gauss-Seidel, integral histogram, Jacobi, NStream, QR factorization,
// Red-Black and symmetric matrix inversion.
//
// Each generator allocates its data as deferred regions (the runtimes under
// study all rely on first-touch/deferred allocation), submits initialization
// tasks — first-touch happens through real tasks, as in the OmpSs originals
// — and then the iteration/factorization task graph. Every task carries the
// expert programmer's placement hint (EPSocket), which only the EP policy
// reads: block-row distributions for the stencils and streams, 2D
// block-cyclic for the dense linear algebra.
//
// Task costs follow the kernels' arithmetic: streaming and stencil tasks
// move many bytes per flop (NUMA-sensitive), factorization tiles are
// compute-dense (NUMA-tolerant). Scales: Tiny for unit tests, Small for
// quick CLI runs, Paper for the Figure-1 reproduction.
package apps

import (
	"fmt"
	"sort"
	"strconv"

	"numadag/internal/rt"
)

// Scale selects a problem-size preset.
type Scale int

const (
	// Tiny is for unit tests: a handful of tiles, 1-2 iterations.
	Tiny Scale = iota
	// Small runs in well under a second of host time.
	Small
	// Paper approximates the evaluation's task counts (thousands of tasks).
	Paper
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Paper:
		return "paper"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// ParseScale converts a string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "paper":
		return Paper, nil
	default:
		return 0, fmt.Errorf("apps: unknown scale %q (tiny|small|paper)", s)
	}
}

// App is a named task-graph generator.
type App struct {
	// Name identifies the benchmark (matches the paper's Figure 1 labels).
	Name string
	// Build allocates regions and submits the benchmark's tasks.
	Build func(r *rt.Runtime)
}

// builders registers the eight benchmarks.
var builders = map[string]func(Scale) App{
	"cg":           NewCG,
	"gauss-seidel": NewGaussSeidel,
	"inthist":      NewIntegralHistogram,
	"jacobi":       NewJacobi,
	"nstream":      NewNStream,
	"qr":           NewQR,
	"red-black":    NewRedBlack,
	"syminv":       NewSymInv,
}

// Names returns the benchmark names in Figure 1's (alphabetical) order.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName instantiates the named benchmark at the given scale.
func ByName(name string, s Scale) (App, error) {
	b, ok := builders[name]
	if !ok {
		return App{}, fmt.Errorf("apps: unknown app %q (have %v)", name, Names())
	}
	return b(s), nil
}

// All instantiates every benchmark at the given scale, in Names() order.
func All(s Scale) []App {
	var out []App
	for _, n := range Names() {
		a, _ := ByName(n, s)
		out = append(out, a)
	}
	return out
}

// blockRowOwner distributes nb block rows over sockets in contiguous
// blocks: rows [i*nb/s, (i+1)*nb/s) belong to socket i — the distribution an
// expert programmer writes for stencils and streams.
func blockRowOwner(row, nb, sockets int) int {
	if nb <= 0 {
		return 0
	}
	s := row * sockets / nb
	if s >= sockets {
		s = sockets - 1
	}
	return s
}

// blockCyclic2D distributes a 2D tile grid over sockets in a pr x pc
// process grid (the ScaLAPACK-style expert distribution for dense tiled
// algorithms).
func blockCyclic2D(i, j, sockets int) int {
	pr, pc := grid2(sockets)
	return (i%pr)*pc + (j % pc)
}

// grid2 factors sockets into the most square pr x pc grid.
func grid2(sockets int) (pr, pc int) {
	pr = 1
	for f := 1; f*f <= sockets; f++ {
		if sockets%f == 0 {
			pr = f
		}
	}
	return pr, sockets / pr
}

// namer formats task labels and region names into one reused buffer with
// strconv, as the workload generators do (appendPair), so a name costs only
// its string. fmt.Sprintf would also box its arguments, and its printer
// cache is a sync.Pool, which drops printers at random under -race.
type namer struct{ buf []byte }

// call returns the task label "fn(a,b,...)".
func (n *namer) call(fn string, args ...int) string {
	return n.format(fn, "(", ",", ")", args)
}

// index returns the region name "arr[a][b]...".
func (n *namer) index(arr string, idx ...int) string {
	return n.format(arr, "[", "][", "]", idx)
}

func (n *namer) format(head, open, sep, end string, args []int) string {
	b := append(append(n.buf[:0], head...), open...)
	for i, a := range args {
		if i > 0 {
			b = append(b, sep...)
		}
		b = strconv.AppendInt(b, int64(a), 10)
	}
	n.buf = append(b, end...)
	return string(n.buf)
}

// kib and mib make sizes readable at call sites.
const (
	kib = int64(1) << 10
	mib = int64(1) << 20
)
