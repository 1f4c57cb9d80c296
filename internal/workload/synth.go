package workload

import (
	"fmt"

	"numadag/internal/apps"
	"numadag/internal/memory"
	"numadag/internal/rt"
	"numadag/internal/xrand"
)

// Synthetic generators: parameterized task-graph families that open the
// partition -> schedule -> audit pipeline to shapes the eight paper
// benchmarks never exercise — irregular layered DAGs and deep fork-join
// reduction trees. All randomness flows through the workload seed (the
// reserved seed= parameter), never the runtime's Rand, so a generated graph
// is a pure function of its spec and stays cacheable across replicates.

// jitter scales base by a uniform factor in [1-cv, 1+cv].
func jitter(rng *xrand.Rand, base float64, cv float64) float64 {
	if cv <= 0 {
		return base
	}
	return base * (1 - cv + 2*cv*rng.Float64())
}

// synthDefaults sizes a generator by scale: a handful of tasks at tiny for
// unit tests, hundreds at small, thousands at paper.
type synthDefaults struct {
	layers, width int
	depth, fanout int
	bytes         int64
	flops         float64
}

func synthPreset(scale apps.Scale) synthDefaults {
	const kib = int64(1) << 10
	switch scale {
	case apps.Tiny:
		return synthDefaults{layers: 4, width: 6, depth: 3, fanout: 2, bytes: 16 * kib, flops: 8 * 1024}
	case apps.Small:
		return synthDefaults{layers: 12, width: 24, depth: 6, fanout: 3, bytes: 64 * kib, flops: 32 * 1024}
	default:
		return synthDefaults{layers: 32, width: 96, depth: 8, fanout: 3, bytes: 256 * kib, flops: 128 * 1024}
	}
}

// randomLayered builds an irregular layered DAG: layers x width tasks, each
// task in layer l > 0 reading the outputs of 1..2*fan-1 (mean fan) distinct
// tasks of layer l-1. Every task writes its own deferred region, so RAW
// edges carry the region's bytes exactly as the app benchmarks' do. Task
// flops are jittered by cv around the mean.
func randomLayeredFactory(s Spec, scale apps.Scale, seed uint64) (Workload, error) {
	if err := s.Only("layers", "width", "fan", "cv", "bytes", "flops"); err != nil {
		return Workload{}, err
	}
	d := synthPreset(scale)
	layers, err := s.Int("layers", d.layers)
	if err != nil {
		return Workload{}, err
	}
	width, err := s.Int("width", d.width)
	if err != nil {
		return Workload{}, err
	}
	fan, err := s.Int("fan", 3)
	if err != nil {
		return Workload{}, err
	}
	cv, err := s.Float("cv", 0.3)
	if err != nil {
		return Workload{}, err
	}
	bytes, err := s.Bytes("bytes", d.bytes)
	if err != nil {
		return Workload{}, err
	}
	flops, err := s.Float("flops", d.flops)
	if err != nil {
		return Workload{}, err
	}
	if layers < 1 || width < 1 || fan < 1 || cv < 0 || cv > 1 || bytes <= 0 || flops <= 0 {
		return Workload{}, fmt.Errorf("workload: random-layered: invalid parameters (layers=%d width=%d fan=%d cv=%g bytes=%d flops=%g)",
			layers, width, fan, cv, bytes, flops)
	}
	build := func(r *rt.Runtime) error {
		rng := xrand.New(seed)
		perm := make([]int, width) // parent draws, reused for every task
		var prev []*memory.Region
		for l := 0; l < layers; l++ {
			cur := make([]*memory.Region, width)
			for i := 0; i < width; i++ {
				out := r.Mem().Alloc(fmt.Sprintf("d[%d][%d]", l, i), bytes, memory.Deferred, 0)
				cur[i] = out
				acc := []rt.Access{{Region: out, Mode: rt.Out}}
				if l > 0 {
					k := 1
					if fan > 1 {
						k += rng.Intn(2*fan - 1) // uniform on [1, 2*fan-1], mean fan
					}
					if k > len(prev) {
						k = len(prev)
					}
					for _, p := range rng.PermInto(perm[:len(prev)])[:k] {
						acc = append(acc, rt.Access{Region: prev[p], Mode: rt.In})
					}
				}
				r.Submit(rt.TaskSpec{
					Label:    fmt.Sprintf("t(%d,%d)", l, i),
					Flops:    jitter(rng, flops, cv),
					Accesses: acc,
					EPSocket: rt.NoEPHint,
				})
			}
			prev = cur
		}
		return nil
	}
	return Workload{Build: build}, nil
}

// forkJoin builds a recursive fork-join/reduction tree: a root task forks
// fanout children down to the given depth, leaves compute, and a mirror
// tree of join tasks reduces the results back up. Tasks communicate through
// per-task deferred regions; flops are jittered by cv.
func forkJoinFactory(s Spec, scale apps.Scale, seed uint64) (Workload, error) {
	if err := s.Only("depth", "fanout", "cv", "bytes", "flops"); err != nil {
		return Workload{}, err
	}
	d := synthPreset(scale)
	depth, err := s.Int("depth", d.depth)
	if err != nil {
		return Workload{}, err
	}
	fanout, err := s.Int("fanout", d.fanout)
	if err != nil {
		return Workload{}, err
	}
	cv, err := s.Float("cv", 0.25)
	if err != nil {
		return Workload{}, err
	}
	bytes, err := s.Bytes("bytes", d.bytes)
	if err != nil {
		return Workload{}, err
	}
	flops, err := s.Float("flops", d.flops)
	if err != nil {
		return Workload{}, err
	}
	if depth < 1 || fanout < 2 || cv < 0 || cv > 1 || bytes <= 0 || flops <= 0 {
		return Workload{}, fmt.Errorf("workload: forkjoin: invalid parameters (depth=%d fanout=%d cv=%g bytes=%d flops=%g)",
			depth, fanout, cv, bytes, flops)
	}
	build := func(r *rt.Runtime) error {
		rng := xrand.New(seed)
		var expand func(level int, path string, in *memory.Region) *memory.Region
		expand = func(level int, path string, in *memory.Region) *memory.Region {
			read := func() []rt.Access {
				if in == nil {
					return nil
				}
				return []rt.Access{{Region: in, Mode: rt.In}}
			}
			if level == depth {
				out := r.Mem().Alloc("leaf"+path, bytes, memory.Deferred, 0)
				r.Submit(rt.TaskSpec{
					Label:    "leaf" + path,
					Flops:    jitter(rng, flops, cv),
					Accesses: append(read(), rt.Access{Region: out, Mode: rt.Out}),
					EPSocket: rt.NoEPHint,
				})
				return out
			}
			fork := r.Mem().Alloc("fork"+path, bytes, memory.Deferred, 0)
			r.Submit(rt.TaskSpec{
				Label:    "fork" + path,
				Flops:    jitter(rng, flops/4, cv),
				Accesses: append(read(), rt.Access{Region: fork, Mode: rt.Out}),
				EPSocket: rt.NoEPHint,
			})
			joinAcc := make([]rt.Access, 0, fanout+1)
			for c := 0; c < fanout; c++ {
				child := expand(level+1, fmt.Sprintf("%s.%d", path, c), fork)
				joinAcc = append(joinAcc, rt.Access{Region: child, Mode: rt.In})
			}
			join := r.Mem().Alloc("join"+path, bytes, memory.Deferred, 0)
			r.Submit(rt.TaskSpec{
				Label:    "join" + path,
				Flops:    jitter(rng, flops/2, cv),
				Accesses: append(joinAcc, rt.Access{Region: join, Mode: rt.Out}),
				EPSocket: rt.NoEPHint,
			})
			return join
		}
		expand(0, "", nil)
		return nil
	}
	return Workload{Build: build}, nil
}

// noopFactory builds a graph of independent tasks with no memory accesses
// and (by default) zero flops — the degenerate job shape the cluster fuzz
// harness throws at arrival bursts. tasks=0 is allowed: an empty graph
// completes in zero simulated time, and the service-mode paths must survive
// it without stalling the shared clock.
func noopFactory(s Spec, scale apps.Scale, seed uint64) (Workload, error) {
	if err := s.Only("tasks", "flops"); err != nil {
		return Workload{}, err
	}
	tasks, err := s.Int("tasks", 1)
	if err != nil {
		return Workload{}, err
	}
	flops, err := s.Float("flops", 0)
	if err != nil {
		return Workload{}, err
	}
	if tasks < 0 || flops < 0 {
		return Workload{}, fmt.Errorf("workload: noop: invalid parameters (tasks=%d flops=%g)", tasks, flops)
	}
	build := func(r *rt.Runtime) error {
		for i := 0; i < tasks; i++ {
			r.Submit(rt.TaskSpec{
				Label:    fmt.Sprintf("noop%d", i),
				Flops:    flops,
				EPSocket: rt.NoEPHint,
			})
		}
		return nil
	}
	return Workload{Build: build}, nil
}

func init() {
	MustRegister("noop",
		"independent no-access tasks, zero flops by default; tasks=0 allowed [tasks, flops]",
		noopFactory)
	MustRegister("random-layered",
		"irregular layered random DAG [layers, width, fan, cv, bytes, flops, seed]",
		randomLayeredFactory)
	MustRegister("forkjoin",
		"recursive fork-join/reduction tree [depth, fanout, cv, bytes, flops, seed]",
		forkJoinFactory)
}
