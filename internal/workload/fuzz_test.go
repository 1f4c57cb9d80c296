package workload

import (
	"os"
	"path/filepath"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/graph"
	"numadag/internal/machine"
	"numadag/internal/partition"
)

// FuzzWorkloadSpec drives arbitrary spec strings through the whole
// resolution path: ParseSpec and New, then Instantiate at tiny scale. Every
// input must yield an error or a graph of at most MaxTasks tasks whose task
// weights sum, without wrapping, to at most maxDAGFlops — never a panic or
// a hang. The seed corpus under testdata/fuzz holds the two crashers this
// fuzzer was written for: cv=NaN (a panic in rt.Submit) and
// forkjoin?depth=64&fanout=4 (an unbounded build). The 10000-task noop seed
// asks for 2^50 flops per task, a sum past 2^63 that must be an error; the
// 4097-task one sums to 4 flops past the cap, which a float64 product
// rounds back onto it.
func FuzzWorkloadSpec(f *testing.F) {
	for _, spec := range []string{
		"random-layered?layers=3&width=4",
		"random-layered?layers=4&width=3&fan=2&cv=0.5&seed=7",
		"random-layered?bytes=1K&flops=1e3",
		"forkjoin?depth=3&fanout=2",
		"forkjoin?depth=2&fanout=3&cv=0&bytes=4K",
		"noop?tasks=4&flops=4096",
		"noop?tasks=0",
		"noop?tasks=10000&flops=1125899906842624",
		"noop?tasks=4097&flops=1125625096028164",
		"jacobi",
		"qr?scale=tiny",
		"cg?blocks=4",
		"jacobi?nb=100000",
		"inthist?nb=3&frames=2",
		"file?path=../../testdata/dags/diamond.json",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := New(spec, apps.Tiny)
		if err != nil {
			return
		}
		r, err := w.Instantiate(machine.TwoSocketXeon())
		if err != nil {
			return
		}
		d := r.Graph()
		if n := d.Len(); n > MaxTasks {
			t.Fatalf("%q built %d tasks, above MaxTasks=%d", spec, n, MaxTasks)
		}
		var flops int64
		for id := 0; id < d.Len(); id++ {
			w := d.NodeWeight(graph.NodeID(id))
			if w < 0 || w > maxDAGFlops-flops {
				t.Fatalf("%q: task %d weight %d takes the summed weight past %d", spec, id, w, int64(maxDAGFlops))
			}
			flops += w
		}
		r.Release()
	})
}

// FuzzDAGFile drives arbitrary bytes through LoadDAG, the loader behind the
// file workload and dagpart -in. Every input must yield an error or a graph
// that is acyclic (its order lists every node, each edge's source first),
// has at most MaxTasks nodes of non-negative weight at most MaxFlops, and
// has non-negative edge weights that sum to at most MaxBytes. A graph of at
// most 64 nodes must also partition in two without a panic. The seed corpus
// holds testdata/dags/diamond.json, the two files whose weights overflow
// int64 sums (which panicked and misreported dagpart -in), a cycle, a
// self-loop, an out-of-range edge, a zero-weight edge and a duplicate edge.
func FuzzDAGFile(f *testing.F) {
	diamond, err := os.ReadFile("../../testdata/dags/diamond.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(diamond)
	for _, s := range []string{
		`{"nodes":[{"weight":1},{"weight":1},{"weight":1}],"edges":[{"from":0,"to":1,"weight":9223372036854775807},{"from":1,"to":2,"weight":9223372036854775807}]}`,
		`{"nodes":[{"weight":9223372036854775807},{"weight":9223372036854775807},{"weight":1}],"edges":[{"from":0,"to":1,"weight":8}]}`,
		`{"nodes":[{"weight":1},{"weight":1},{"weight":1}],"edges":[{"from":0,"to":1,"weight":8},{"from":1,"to":2,"weight":8},{"from":2,"to":0,"weight":8}]}`,
		`{"nodes":[{"weight":1},{"weight":1}],"edges":[{"from":1,"to":1,"weight":8}]}`,
		`{"nodes":[{"weight":1},{"weight":1}],"edges":[{"from":0,"to":2,"weight":8}]}`,
		`{"nodes":[{"label":"a","weight":3},{"label":"b","weight":4}],"edges":[{"from":0,"to":1,"weight":0}]}`,
		`{"nodes":[{"weight":3},{"weight":4}],"edges":[{"from":0,"to":1,"weight":4611686018427387904},{"from":0,"to":1,"weight":4611686018427387904}]}`,
	} {
		f.Add([]byte(s))
	}
	path := filepath.Join(f.TempDir(), "dag.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, order, err := LoadDAG(path)
		if err != nil {
			return
		}
		if n := d.Len(); n == 0 || n > MaxTasks || len(order) != n {
			t.Fatalf("loaded %d nodes with an order of %d, want 1 to MaxTasks=%d", n, len(order), MaxTasks)
		}
		pos := make([]int, d.Len())
		for i, id := range order {
			pos[id] = i + 1
		}
		for id, p := range pos {
			if p == 0 {
				t.Fatalf("node %d missing from the order", id)
			}
			if w := d.NodeWeight(graph.NodeID(id)); w < 0 || w > MaxFlops {
				t.Fatalf("node %d weight %d outside [0, MaxFlops]", id, w)
			}
		}
		var bytes int64
		for _, e := range d.EdgeList() {
			if e.Weight < 0 || e.Weight > MaxBytes-bytes {
				t.Fatalf("edge (%d,%d) weight %d takes the edge weights past MaxBytes=%d", e.From, e.To, e.Weight, int64(MaxBytes))
			}
			bytes += e.Weight
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("edge (%d,%d) runs against the order: the graph has a cycle", e.From, e.To)
			}
		}
		if d.Len() <= 64 {
			partition.Partition(partition.FromDAG(d), partition.DefaultOptions(2))
		}
	})
}
