package workload

import (
	"fmt"
	"os"
	"strconv"

	"numadag/internal/apps"
	"numadag/internal/graph"
	"numadag/internal/memory"
	"numadag/internal/names"
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

// dagBuilder replays a loaded DAG through Submit, in topological order so
// every producing task precedes its consumers (Submit derives RAW edges
// from the region's last writer). What every build reads is resolved here,
// once: each task's label, or its n<id> default, and each task's inputs in
// Preds order as edge numbers, an edge's number being the order in which a
// build allocates its region. A build keeps its regions in one slice
// indexed by those numbers and formats their names into one buffer.
func dagBuilder(d *graph.DAG, order []graph.NodeID) func(r *rt.Runtime) error {
	var labels names.List
	for id := range d.Len() {
		if l := d.Label(graph.NodeID(id)); l != "" {
			labels.Add(l)
		} else {
			labels.Add("n" + strconv.Itoa(id))
		}
	}
	number := make(map[[2]graph.NodeID]int32, d.Edges())
	degree := 0 // the longest access list
	for _, from := range order {
		d.Succs(from, func(to graph.NodeID, _ int64) { number[[2]graph.NodeID{from, to}] = int32(len(number)) })
		degree = max(degree, d.InDegree(from)+d.OutDegree(from))
	}
	in := make([]int32, 0, d.Edges())
	for _, to := range order {
		d.Preds(to, func(from graph.NodeID, _ int64) { in = append(in, number[[2]graph.NodeID{from, to}]) })
	}
	return func(r *rt.Runtime) error {
		regions := make([]*memory.Region, 0, len(in))
		acc := make([]rt.Access, 0, degree) // one list for every task: Submit copies it
		name := make([]byte, 0, 48)         // every region name, e<from>-<to>: Alloc copies it
		next := in
		for _, id := range order {
			acc = acc[:0]
			for _, e := range next[:d.InDegree(id)] {
				acc = append(acc, rt.Access{Region: regions[e], Mode: rt.In})
			}
			next = next[d.InDegree(id):]
			d.Succs(id, func(to graph.NodeID, w int64) {
				name = strconv.AppendInt(append(strconv.AppendInt(append(name[:0], 'e'), int64(id), 10), '-'), int64(to), 10)
				regions = append(regions, r.Mem().Alloc(names.View(name), w, memory.Deferred, 0))
				acc = append(acc, rt.Access{Region: regions[len(regions)-1], Mode: rt.Out})
			})
			r.Submit(rt.TaskSpec{
				Label:    labels.View(int(id)),
				Flops:    float64(d.NodeWeight(id)),
				Accesses: acc,
				EPSocket: rt.NoEPHint,
			})
		}
		return nil
	}
}

func init() {
	MustRegister("file",
		"DAG imported from a dagpart-format JSON file [path, format]",
		fileFactory)
}
