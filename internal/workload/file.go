package workload

import (
	"fmt"
	"os"

	"numadag/internal/apps"
	"numadag/internal/graph"
	"numadag/internal/memory"
	"numadag/internal/rt"
)

// fileFactory imports a DAG serialized in cmd/dagpart's JSON format
// ({"nodes":[{"label","weight"}],"edges":[{"from","to","weight"}]}) and
// replays it as a task graph: node weights become task flops, and each edge
// becomes a dedicated deferred region of the edge's byte weight, written by
// the source task and read by the target — so the runtime's dependence
// tracker re-derives exactly the imported edges with their weights. The
// file is read and validated eagerly, at spec-resolution time; malformed
// input fails before any simulation is set up.
func fileFactory(s Spec, _ apps.Scale, _ uint64) (Workload, error) {
	if err := s.Only("path", "format"); err != nil {
		return Workload{}, err
	}
	path := s.Str("path", "")
	if path == "" {
		return Workload{}, fmt.Errorf("workload: file: missing required parameter path")
	}
	if f := s.Str("format", "json"); f != "json" {
		return Workload{}, fmt.Errorf("workload: file: unsupported format %q (only json)", f)
	}
	d, order, err := LoadDAG(path)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: file: %w", err)
	}
	return Workload{Build: dagBuilder(d, order)}, nil
}

// maxDAGFileBytes bounds the DAG files LoadDAG reads, far above the JSON of
// a MaxTasks-node graph.
const maxDAGFileBytes = 1 << 28

// LoadDAG reads a DAG in dagpart's JSON format from path, a regular file of
// at most maxDAGFileBytes, and checks it as every imported graph is
// checked: a non-empty graph within the caps checkDAGSize applies, without
// a cycle. It returns the graph and a topological order of it. The file
// workload and dagpart -in both load through it.
func LoadDAG(path string) (*graph.DAG, []graph.NodeID, error) {
	if fi, err := os.Stat(path); err != nil {
		return nil, nil, err
	} else if !fi.Mode().IsRegular() || fi.Size() > maxDAGFileBytes {
		return nil, nil, fmt.Errorf("%s is not a regular file of at most %d bytes", path, maxDAGFileBytes)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	d := new(graph.DAG)
	if err := d.UnmarshalJSON(data); err != nil {
		return nil, nil, fmt.Errorf("malformed DAG in %s: %w", path, err)
	}
	if d.Len() == 0 {
		return nil, nil, fmt.Errorf("%s holds an empty graph", path)
	}
	if err := checkDAGSize(d); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	order, err := d.TopoOrder()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, order, nil
}

// checkDAGSize applies the synthetic generators' caps to an imported graph:
// its node count (MaxTasks), its summed edge weights, which become region
// bytes (MaxBytes), and each node weight, which becomes task flops
// (MaxFlops), and caps the summed node weight (maxDAGFlops).
func checkDAGSize(d *graph.DAG) error {
	if d.Len() > MaxTasks {
		return fmt.Errorf("%d nodes exceed %d (MaxTasks)", d.Len(), MaxTasks)
	}
	var bytes int64
	for _, e := range d.EdgeList() {
		if e.Weight > MaxBytes-bytes {
			return fmt.Errorf("edge weights exceed %d bytes (MaxBytes)", int64(MaxBytes))
		}
		bytes += e.Weight
	}
	var flops int64
	for id := 0; id < d.Len(); id++ {
		w := d.NodeWeight(graph.NodeID(id))
		if w > MaxFlops {
			return fmt.Errorf("node %d weight %d exceeds %d (MaxFlops)", id, w, int64(MaxFlops))
		}
		if w > maxDAGFlops-flops {
			return fmt.Errorf("node weights exceed %d in total", int64(maxDAGFlops))
		}
		flops += w
	}
	return nil
}

// dagBuilder replays an in-memory DAG through Submit, in topological order
// so every producing task precedes its consumers (Submit derives RAW edges
// from the region's last writer).
func dagBuilder(d *graph.DAG, order []graph.NodeID) func(r *rt.Runtime) error {
	return func(r *rt.Runtime) error {
		// outRegions[id] holds the region task id writes for each of its
		// out-edges, keyed by successor, created when the producer submits.
		outRegions := make([]map[graph.NodeID]*memory.Region, d.Len())
		var acc []rt.Access // one list for every task: Submit copies it
		for _, id := range order {
			acc = acc[:0]
			d.Preds(id, func(from graph.NodeID, _ int64) {
				acc = append(acc, rt.Access{Region: outRegions[from][id], Mode: rt.In})
			})
			if n := d.OutDegree(id); n > 0 {
				outRegions[id] = make(map[graph.NodeID]*memory.Region, n)
				d.Succs(id, func(to graph.NodeID, w int64) {
					reg := r.Mem().Alloc(fmt.Sprintf("e%d-%d", id, to), w, memory.Deferred, 0)
					outRegions[id][to] = reg
					acc = append(acc, rt.Access{Region: reg, Mode: rt.Out})
				})
			}
			label := d.Label(id)
			if label == "" {
				label = fmt.Sprintf("n%d", id)
			}
			r.Submit(rt.TaskSpec{
				Label:    label,
				Flops:    float64(d.NodeWeight(id)),
				Accesses: acc,
				EPSocket: rt.NoEPHint,
			})
		}
		return nil
	}
}

// FromDAG wraps an in-memory DAG as a Workload, for programmatic use (the
// file generator is this plus JSON loading). The DAG must be acyclic and is
// not copied; it must not be mutated afterwards.
func FromDAG(name string, d *graph.DAG) (Workload, error) {
	if err := checkDAGSize(d); err != nil {
		return Workload{}, fmt.Errorf("workload: %s: %w", name, err)
	}
	order, err := d.TopoOrder()
	if err != nil {
		return Workload{}, fmt.Errorf("workload: %w", err)
	}
	return Workload{Name: name, Spec: name, Seed: 1, Build: dagBuilder(d, order)}, nil
}

func init() {
	MustRegister("file",
		"DAG imported from a dagpart-format JSON file [path, format]",
		fileFactory)
}
