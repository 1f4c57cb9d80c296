package workload

import (
	"fmt"
	"strconv"

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

// MaxTasks caps the task count of every workload: the paper apps, whose
// constructors enforce it (apps.MaxTasks), and the synthetic and imported
// graphs here. Each generator computes its count from its parameters
// (layers x width, the fork-join tree size, the node count of a file)
// before building anything and returns an error above the cap, so no spec
// can ask for an unbounded build.
const MaxTasks = apps.MaxTasks

// MaxBytes caps the summed region bytes of every workload, the same way
// (apps.MaxBytes).
const MaxBytes = apps.MaxBytes

// MaxFlops caps the mean work of one synthetic or imported task, keeping
// every (jittered) task weight an exact, positive int64 in the TDG.
const MaxFlops = 1 << 50

// checkSize returns an error when a generator's task count or footprint
// (tasks regions of bytes each) exceeds the caps. tasks must already be
// saturated at MaxTasks+1 by the caller's overflow-checked count.
func checkSize(gen string, tasks int, bytes int64) error {
	if tasks > MaxTasks {
		return fmt.Errorf("workload: %s: more than %d tasks (MaxTasks)", gen, MaxTasks)
	}
	if tasks > 0 && bytes > MaxBytes/int64(tasks) {
		return fmt.Errorf("workload: %s: %d regions of %d bytes exceed %d bytes (MaxBytes)", gen, tasks, bytes, int64(MaxBytes))
	}
	return nil
}

// accessSlab carves exactly sized access lists out of shared chunks, so a
// generator pays one allocation per chunk instead of one or more per task.
// The runtime keeps every task's list, so chunks are never reused.
type accessSlab struct{ free []rt.Access }

// take returns an empty list with capacity n.
func (s *accessSlab) take(n int) []rt.Access {
	if cap(s.free) < n {
		s.free = make([]rt.Access, max(n, 1024))
	}
	a := s.free[:0:n]
	s.free = s.free[n:]
	return a
}

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
	if layers < 1 || width < 1 || fan < 1 || fan > MaxTasks || cv < 0 || cv > 1 || bytes <= 0 || flops <= 0 || flops > MaxFlops {
		return Workload{}, fmt.Errorf("workload: random-layered: invalid parameters (layers=%d width=%d fan=%d cv=%g bytes=%d flops=%g)",
			layers, width, fan, cv, bytes, flops)
	}
	tasks := MaxTasks + 1
	if layers <= MaxTasks/width {
		tasks = layers * width
	}
	if err := checkSize("random-layered", tasks, bytes); err != nil {
		return Workload{}, err
	}
	build := func(r *rt.Runtime) error {
		rng := xrand.New(seed)
		perm := make([]int, width) // parent draws, reused for every task
		prev, cur := make([]*memory.Region, width), make([]*memory.Region, width)
		var accs accessSlab
		var text []byte
		for l := 0; l < layers; l++ {
			for i := 0; i < width; i++ {
				text = appendPair(append(text[:0], "d["...), l, "][", i, "]")
				out := r.Mem().Alloc(string(text), bytes, memory.Deferred, 0)
				cur[i] = out
				k := 0
				if l > 0 {
					k = 1
					if fan > 1 {
						k += rng.Intn(2*fan - 1) // uniform on [1, 2*fan-1], mean fan
					}
					if k > len(prev) {
						k = len(prev)
					}
				}
				acc := append(accs.take(1+k), rt.Access{Region: out, Mode: rt.Out})
				if k > 0 {
					for _, p := range rng.PermInto(perm[:len(prev)])[:k] {
						acc = append(acc, rt.Access{Region: prev[p], Mode: rt.In})
					}
				}
				text = appendPair(append(text[:0], "t("...), l, ",", i, ")")
				r.Submit(rt.TaskSpec{
					Label:    string(text),
					Flops:    jitter(rng, flops, cv),
					Accesses: acc,
					EPSocket: rt.NoEPHint,
				})
			}
			prev, cur = cur, prev
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
	if depth < 1 || fanout < 2 || cv < 0 || cv > 1 || bytes <= 0 || flops <= 0 || flops > MaxFlops {
		return Workload{}, fmt.Errorf("workload: forkjoin: invalid parameters (depth=%d fanout=%d cv=%g bytes=%d flops=%g)",
			depth, fanout, cv, bytes, flops)
	}
	if err := checkSize("forkjoin", forkJoinTasks(depth, fanout), bytes); err != nil {
		return Workload{}, err
	}
	build := func(r *rt.Runtime) error {
		rng := xrand.New(seed)
		var accs accessSlab
		// submit allocates the task's output region, named like the task,
		// and submits the task reading the non-nil inputs.
		submit := func(label string, work float64, inputs ...*memory.Region) *memory.Region {
			out := r.Mem().Alloc(label, bytes, memory.Deferred, 0)
			acc := accs.take(len(inputs) + 1)
			for _, in := range inputs {
				if in != nil {
					acc = append(acc, rt.Access{Region: in, Mode: rt.In})
				}
			}
			r.Submit(rt.TaskSpec{
				Label:    label,
				Flops:    jitter(rng, work, cv),
				Accesses: append(acc, rt.Access{Region: out, Mode: rt.Out}),
				EPSocket: rt.NoEPHint,
			})
			return out
		}
		var expand func(level int, path string, in *memory.Region) *memory.Region
		expand = func(level int, path string, in *memory.Region) *memory.Region {
			if level == depth {
				return submit("leaf"+path, flops, in)
			}
			fork := submit("fork"+path, flops/4, in)
			children := make([]*memory.Region, fanout)
			for c := range children {
				children[c] = expand(level+1, path+"."+strconv.Itoa(c), fork)
			}
			return submit("join"+path, flops/2, children...)
		}
		expand(0, "", nil)
		return nil
	}
	return Workload{Build: build}, nil
}

// forkJoinTasks returns the task count of a fork-join tree — a fork and a
// join per inner node, fanout^depth leaves — saturated at MaxTasks+1.
func forkJoinTasks(depth, fanout int) int {
	tasks, width := 0, 1 // width: nodes on the current level
	for l := 0; l < depth; l++ {
		tasks += 2 * width
		if width > MaxTasks/fanout {
			return MaxTasks + 1
		}
		width *= fanout
	}
	if tasks += width; tasks > MaxTasks {
		return MaxTasks + 1
	}
	return tasks
}

// appendPair appends a, sep, b and end to buf in decimal — the "d[l][i]"
// and "t(l,i)" names of a layered graph, without fmt.
func appendPair(buf []byte, a int, sep string, b int, end string) []byte {
	buf = strconv.AppendInt(buf, int64(a), 10)
	buf = append(buf, sep...)
	buf = strconv.AppendInt(buf, int64(b), 10)
	return append(buf, end...)
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
	if tasks < 0 || flops < 0 || flops > MaxFlops {
		return Workload{}, fmt.Errorf("workload: noop: invalid parameters (tasks=%d flops=%g)", tasks, flops)
	}
	if err := checkSize("noop", tasks, 0); err != nil {
		return Workload{}, err
	}
	build := func(r *rt.Runtime) error {
		for i := 0; i < tasks; i++ {
			r.Submit(rt.TaskSpec{
				Label:    "noop" + strconv.Itoa(i),
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
