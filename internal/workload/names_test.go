package workload

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/graph"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// nameDigest hashes (FNV-1a, 64 bits) every task label of r's graph in
// submission order, then every region name of its memory manager in
// allocation order, each name terminated by a zero byte.
func nameDigest(r *rt.Runtime) string {
	h := fnv.New64a()
	g := r.Graph()
	for id := 0; id < g.Len(); id++ {
		h.Write([]byte(g.Label(graph.NodeID(id))))
		h.Write([]byte{0})
	}
	h.Write([]byte{1})
	for _, reg := range r.Mem().Regions() {
		h.Write([]byte(reg.Name()))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestNameDigests pins every task label and region name of every built-in
// workload, in build order, at small and paper scale, and of the file
// workload replaying an exported graph: the names a builder formats must
// reach the graph unchanged. Builders format each name into
// one reused buffer and pass the runtime a view of it, which Submit and
// Alloc copy before they return, so a builder that formats its next name
// while the view of the last is still unused, or a runtime that keeps the
// view instead of its bytes, moves a digest. A snapshot of the build must
// install the same names.
func TestNameDigests(t *testing.T) {
	want := map[string]string{
		"cg@small":             "87e6e460ff9ffcdc",
		"gauss-seidel@small":   "52754fe92bbcc54c",
		"inthist@small":        "41278c6c255de64c",
		"jacobi@small":         "5de174fc116f036c",
		"nstream@small":        "13e4887d9da13efc",
		"qr@small":             "e0dc31230413bb38",
		"red-black@small":      "b083befb240b90cc",
		"syminv@small":         "5682ca543efafac8",
		"random-layered@small": "357c7ac044ac47bc",
		"forkjoin@small":       "ad4ae2d70398f5ba",
		"noop?tasks=300@small": "d468bff499810aca",
		"cg@paper":             "9286f188f2bf5592",
		"gauss-seidel@paper":   "6e2c7c1d6f23367c",
		"inthist@paper":        "32f975f16d366084",
		"jacobi@paper":         "20b7adb14b30ec3c",
		"nstream@paper":        "7be20004bb1ae5f8",
		"qr@paper":             "a9938d44fc78bdb7",
		"red-black@paper":      "e0a7cb35c9cb49bc",
		"syminv@paper":         "50efacd024ac79b4",
		"random-layered@paper": "8f3e2686bbf8331c",
		"forkjoin@paper":       "148362e1981f626a",
		"noop?tasks=300@paper": "d468bff499810aca",
		"file":                 "8d6d4c4609914aaf",
	}
	mc := machine.BullionS16()
	check := func(key, spec string, scale apps.Scale) {
		t.Helper()
		w, err := New(spec, scale)
		if err != nil {
			t.Fatal(err)
		}
		r, err := w.Instantiate(mc)
		if err != nil {
			t.Fatal(err)
		}
		got := nameDigest(r)
		r.Release()
		if got != want[key] {
			t.Errorf("%s: names digest %s, want %s", key, got, want[key])
		}
		snap, err := w.Snapshot(mc)
		if err != nil {
			t.Fatal(err)
		}
		inst := rt.NewRuntime(machine.New(mc, sim.NewEngine()), nopPolicy{}, rt.Options{})
		snap.Install(inst)
		if d := nameDigest(inst); d != got {
			t.Errorf("%s: an installed snapshot's names digest %s, want the build's %s", key, d, got)
		}
		inst.Release()
	}
	specs := append(apps.Names(), "random-layered", "forkjoin", "noop?tasks=300")
	for _, scale := range []apps.Scale{apps.Small, apps.Paper} {
		for _, spec := range specs {
			check(spec+"@"+scale.String(), spec, scale)
		}
	}
	check("file", "file?path="+exportSpec(t, "random-layered?layers=16&width=32&seed=5"), apps.Paper)
}

// exportSpec writes the paper-scale graph of spec to a JSON file in a
// temporary directory, every odd node without its label, so the file
// workload names it n<id>, and returns the file's path.
func exportSpec(t *testing.T, spec string) string {
	t.Helper()
	src, err := New(spec, apps.Paper)
	if err != nil {
		t.Fatal(err)
	}
	r, err := src.Instantiate(machine.BullionS16())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	g, d := r.Graph(), new(graph.DAG)
	for id := range graph.NodeID(g.Len()) {
		label := g.Label(id)
		if id%2 == 1 {
			label = ""
		}
		d.AddNode(label, g.NodeWeight(id))
	}
	for _, e := range g.EdgeList() {
		d.AddEdge(e.From, e.To, e.Weight)
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFileBuildSteadyStateAllocs pins the file workload's build into a
// warmed pooled runtime at one fixed count per build, for a 512- and a
// 2048-task graph alike. Each task's label, each task's inputs as edge
// numbers and the longest access list are resolved with the spec, so a
// build allocates only its slice of regions, its access list and its
// region-name buffer, beside the pooled runtime's own fixed tail (2): 5
// allocations, also under -race. A map of out-regions per producing task,
// an fmt name per region and per unlabelled node and a label copy per task
// made 4,478 per build of these graphs at 512 tasks (8.7 per task) and
// 23,739 at 2048 (11.6).
func TestFileBuildSteadyStateAllocs(t *testing.T) {
	m := machine.New(machine.BullionS16(), sim.NewEngine())
	for _, tasks := range []int{512, 2048} {
		t.Run(strconv.Itoa(tasks), func(t *testing.T) {
			spec := fmt.Sprintf("random-layered?layers=%d&width=%d&seed=5", tasks/32, 32)
			w, err := New("file?path="+exportSpec(t, spec), apps.Paper)
			if err != nil {
				t.Fatal(err)
			}
			build := func() {
				r := rt.NewRuntime(m, nopPolicy{}, rt.Options{})
				if err := w.BuildInto(r); err != nil {
					t.Fatal(err)
				}
				r.Release()
			}
			for range 3 {
				build() // grow the pooled runtime
			}
			const limit = 5
			if avg := testing.AllocsPerRun(10, build); avg > limit {
				t.Fatalf("file build allocates %.0f allocs per build in steady state, want <= %v", avg, limit)
			} else {
				t.Logf("%.0f allocs per build", avg)
			}
		})
	}
}
