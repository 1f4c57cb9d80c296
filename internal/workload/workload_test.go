package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/graph"
	"numadag/internal/machine"
	"numadag/internal/rt"
)

// graphShape summarizes a DAG for equality checks.
type graphShape struct {
	Nodes, Edges              int
	NodeWeight, EdgeWeight    int64
	Levels                    int
	FirstLabel, LastLabel     string
	Roots, Leaves, CritWeight int64
}

// roots returns the nodes of d with no predecessors, in ID order.
func roots(d *graph.DAG) []graph.NodeID {
	var out []graph.NodeID
	for i := 0; i < d.Len(); i++ {
		if d.InDegree(graph.NodeID(i)) == 0 {
			out = append(out, graph.NodeID(i))
		}
	}
	return out
}

// leaves returns the nodes of d with no successors, in ID order.
func leaves(d *graph.DAG) []graph.NodeID {
	var out []graph.NodeID
	for i := 0; i < d.Len(); i++ {
		if d.OutDegree(graph.NodeID(i)) == 0 {
			out = append(out, graph.NodeID(i))
		}
	}
	return out
}

func shapeOf(t *testing.T, w Workload) graphShape {
	t.Helper()
	r, err := w.Instantiate(machine.BullionS16())
	if err != nil {
		t.Fatalf("%s: %v", w.Spec, err)
	}
	d := r.Graph()
	_, lv, err := d.Levels()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := d.CriticalPathWeight()
	if err != nil {
		t.Fatal(err)
	}
	return graphShape{
		Nodes:      d.Len(),
		Edges:      d.Edges(),
		NodeWeight: d.TotalNodeWeight(),
		EdgeWeight: d.TotalEdgeWeight(),
		Levels:     lv,
		FirstLabel: d.Label(0),
		LastLabel:  d.Label(graph.NodeID(d.Len() - 1)),
		Roots:      int64(len(roots(d))),
		Leaves:     int64(len(leaves(d))),
		CritWeight: cp,
	}
}

func TestRegistryListsAppsAndGenerators(t *testing.T) {
	names := Names()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, n := range apps.Names() {
		if !have[n] {
			t.Errorf("app %q not registered as a workload", n)
		}
	}
	for _, n := range []string{"random-layered", "forkjoin", "file"} {
		if !have[n] {
			t.Errorf("generator %q not registered", n)
		}
		if doc, err := Doc(n); err != nil || doc == "" {
			t.Errorf("Doc(%q) = %q, %v", n, doc, err)
		}
	}
}

// TestAppWrapperMatchesByName pins the zero-parameter wrappers to the exact
// graphs apps.ByName builds — the property that keeps Figure 1 and the
// determinism goldens byte-identical after the workload migration.
func TestAppWrapperMatchesByName(t *testing.T) {
	for _, name := range apps.Names() {
		w, err := New(name, apps.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		r, err := w.Instantiate(machine.BullionS16())
		if err != nil {
			t.Fatal(err)
		}
		app, err := apps.ByName(name, apps.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := Workload{Build: func(r *rt.Runtime) error { app.Build(r); return nil }}
		rr, err := wrapped.Instantiate(machine.BullionS16())
		if err != nil {
			t.Fatal(err)
		}
		if r.Graph().Len() != rr.Graph().Len() || r.Graph().Edges() != rr.Graph().Edges() ||
			r.Graph().TotalNodeWeight() != rr.Graph().TotalNodeWeight() ||
			r.Graph().TotalEdgeWeight() != rr.Graph().TotalEdgeWeight() {
			t.Errorf("%s: wrapper graph differs from apps.ByName", name)
		}
	}
}

func TestSeedAndScaleLifting(t *testing.T) {
	w, err := New("random-layered?layers=5&seed=9&scale=tiny", apps.Paper)
	if err != nil {
		t.Fatal(err)
	}
	if w.Seed != 9 || w.Scale != apps.Tiny || w.Name != "random-layered" {
		t.Fatalf("lifting failed: %+v", w)
	}
	if w.Spec != "random-layered?layers=5" {
		t.Fatalf("canonical spec %q retains reserved params", w.Spec)
	}
	if w.Key() != "random-layered?layers=5@tiny#9" {
		t.Fatalf("Key() = %q", w.Key())
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	for _, spec := range []string{
		"random-layered?layers=6&width=10&seed=4",
		"forkjoin?depth=4&fanout=2&seed=4",
	} {
		w1, err := New(spec, apps.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := New(spec, apps.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := shapeOf(t, w1), shapeOf(t, w2); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds differ: %+v vs %+v", spec, a, b)
		}
	}
	// A different seed must change the graph (weights at minimum).
	a, _ := New("random-layered?layers=6&width=10&seed=1", apps.Tiny)
	b, _ := New("random-layered?layers=6&width=10&seed=2", apps.Tiny)
	if reflect.DeepEqual(shapeOf(t, a), shapeOf(t, b)) {
		t.Error("random-layered: seeds 1 and 2 built identical graphs")
	}
}

func TestRandomLayeredStructure(t *testing.T) {
	w, err := New("random-layered?layers=7&width=9&fan=2&seed=3", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.Instantiate(machine.BullionS16())
	if err != nil {
		t.Fatal(err)
	}
	d := r.Graph()
	if d.Len() != 7*9 {
		t.Fatalf("nodes = %d, want %d", d.Len(), 7*9)
	}
	_, lv, err := d.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv != 7 {
		t.Fatalf("levels = %d, want 7", lv)
	}
	// Every non-root layer node has at least one predecessor in the
	// previous layer, so the only roots are layer 0.
	if n := len(roots(d)); n != 9 {
		t.Fatalf("roots = %d, want 9", n)
	}
}

func TestForkJoinStructure(t *testing.T) {
	const depth, fanout = 3, 2
	w, err := New("forkjoin?depth=3&fanout=2&cv=0", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.Instantiate(machine.BullionS16())
	if err != nil {
		t.Fatal(err)
	}
	d := r.Graph()
	// Internal levels hold (fanout^depth-1)/(fanout-1) fork+join pairs,
	// plus fanout^depth leaves.
	internal := (1<<depth - 1) // fanout=2
	want := 2*internal + 1<<depth
	if d.Len() != want {
		t.Fatalf("nodes = %d, want %d", d.Len(), want)
	}
	if rs := roots(d); len(rs) != 1 || d.Label(rs[0]) != "fork" {
		t.Fatalf("roots = %v", rs)
	}
	if ls := leaves(d); len(ls) != 1 || d.Label(ls[0]) != "join" {
		t.Fatalf("leaves = %v", ls)
	}
}

func TestFileImportRoundtrip(t *testing.T) {
	// Export a generated graph to JSON, import it through the file
	// workload, and demand an identical node/edge/weight structure.
	src, err := New("forkjoin?depth=3&fanout=2&seed=5", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := src.Instantiate(machine.BullionS16())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rs.Graph())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	imp, err := New("file?path="+path, apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := imp.Instantiate(machine.BullionS16())
	if err != nil {
		t.Fatal(err)
	}
	gs, gi := rs.Graph(), ri.Graph()
	if gs.Len() != gi.Len() || gs.Edges() != gi.Edges() ||
		gs.TotalNodeWeight() != gi.TotalNodeWeight() || gs.TotalEdgeWeight() != gi.TotalEdgeWeight() {
		t.Fatalf("roundtrip differs: %d/%d/%d/%d vs %d/%d/%d/%d",
			gs.Len(), gs.Edges(), gs.TotalNodeWeight(), gs.TotalEdgeWeight(),
			gi.Len(), gi.Edges(), gi.TotalNodeWeight(), gi.TotalEdgeWeight())
	}
	// Malformed content fails at resolution time.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"nodes": [{"weight": -1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New("file?path="+bad, apps.Tiny); err == nil {
		t.Error("malformed file accepted")
	}
	// A cyclic graph fails validation.
	cyclic := filepath.Join(t.TempDir(), "cyclic.json")
	cy := `{"nodes":[{"weight":1},{"weight":1}],"edges":[{"from":0,"to":1,"weight":1},{"from":1,"to":0,"weight":1}]}`
	if err := os.WriteFile(cyclic, []byte(cy), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New("file?path="+cyclic, apps.Tiny); err == nil {
		t.Error("cyclic file accepted")
	}
}

// TestTaskCap pins the up-front size check of every workload: a spec at
// MaxTasks resolves, one step over is an error (before anything is built),
// and the once-hanging forkjoin?depth=64&fanout=4 and jacobi?nb=100000 fail
// at once.
func TestTaskCap(t *testing.T) {
	if MaxTasks != 262144 {
		t.Fatalf("MaxTasks = %d: update the specs below to sit at and just over it", MaxTasks)
	}
	for _, c := range []struct {
		spec string
		ok   bool
	}{
		{"random-layered?layers=1&width=262144", true},
		{"random-layered?layers=1&width=262145", false},
		{"random-layered?layers=512&width=513", false},
		{"random-layered?layers=9223372036854775807&width=9223372036854775807", false},
		{"forkjoin?depth=16&fanout=2", true}, // 3*2^16-2 = 196606 tasks
		{"forkjoin?depth=17&fanout=2", false},
		{"forkjoin?depth=1&fanout=262142", true}, // fork + join + 262142 leaves
		{"forkjoin?depth=1&fanout=262143", false},
		{"forkjoin?depth=64&fanout=4", false},
		{"forkjoin?depth=2&fanout=9223372036854775807", false},
		{"noop?tasks=262144", true},
		{"noop?tasks=262145", false},
		// The paper apps, each at (or, where no parameters reach exactly
		// 262144 tasks, just under) the cap and one step over it.
		{"jacobi?nb=256&iters=3", true}, // 256² x (1+3) = 262144
		{"jacobi?nb=256&iters=4", false},
		{"red-black?nb=256&iters=3", true},
		{"red-black?nb=257&iters=3", false},
		{"gauss-seidel?nb=256&iters=3", true},
		{"gauss-seidel?nb=256&iters=4", false},
		{"nstream?chunks=65536&iters=1", true}, // 65536 x (3+1)
		{"nstream?chunks=65537&iters=1", false},
		{"cg?blocks=9362&iters=4", true}, // 4x9362 + 4x(6x9362+2)
		{"cg?blocks=9363&iters=4", false},
		{"inthist?nb=8&frames=2184", true}, // 64 + 2184x8x15
		{"inthist?nb=8&frames=2185", false},
		{"qr?nt=90", true}, // 255165 tasks; nt=91 has 263627
		{"qr?nt=91", false},
		{"syminv?nt=79", true}, // 256039 tasks; nt=80 has 265760
		{"syminv?nt=80", false},
		{"jacobi?nb=100000", false},
		{"jacobi?nb=9223372036854775807&iters=9223372036854775807", false},
		{"cg?blocks=9223372036854775807&iters=9223372036854775807", false},
		{"syminv?nt=9223372036854775807", false},
	} {
		_, err := New(c.spec, apps.Tiny)
		if c.ok && err != nil {
			t.Errorf("New(%q) at the cap: %v", c.spec, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "MaxTasks")) {
			t.Errorf("New(%q) over the cap = %v, want a MaxTasks error", c.spec, err)
		}
	}
	for _, n := range []int{MaxTasks, MaxTasks + 1} {
		var b strings.Builder
		b.WriteString(`{"nodes":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"weight":1}`)
		}
		b.WriteString(`],"edges":[]}`)
		path := filepath.Join(t.TempDir(), "wide.json")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := New("file?path="+path, apps.Tiny)
		if n <= MaxTasks && err != nil {
			t.Errorf("file with %d nodes: %v", n, err)
		}
		if n > MaxTasks && (err == nil || !strings.Contains(err.Error(), "MaxTasks")) {
			t.Errorf("file with %d nodes = %v, want a MaxTasks error", n, err)
		}
	}
}

// TestFootprintAndWorkCaps pins the other two up-front bounds: summed
// region bytes (MaxBytes, which bounds the page tables a build allocates)
// for every workload, and per-task work (MaxFlops, which keeps every TDG
// node weight a valid int64) for the generators and for file imports.
func TestFootprintAndWorkCaps(t *testing.T) {
	for _, c := range []struct {
		spec string
		want string // "" when the spec must resolve
	}{
		{"random-layered?layers=1&width=1&bytes=64G", ""},
		{"random-layered?layers=1&width=2&bytes=64G", "MaxBytes"},
		{"forkjoin?depth=1&fanout=2&bytes=16G", ""}, // 4 regions
		{"forkjoin?depth=1&fanout=2&bytes=17G", "MaxBytes"},
		{"random-layered?flops=1125899906842624", ""},
		{"random-layered?flops=1125899906842625", "invalid parameters"},
		{"forkjoin?flops=1e300", "invalid parameters"},
		{"noop?flops=1e300", "invalid parameters"},
		{"random-layered?fan=262145", "invalid parameters"},
		{"jacobi?nb=4&tile=2G", ""}, // two grids of 16 tiles: 64G
		{"jacobi?nb=4&tile=2147483649", "MaxBytes"},
		{"red-black?nb=4&tile=4G", ""}, // one grid: 64G
		{"red-black?nb=4&tile=4294967297", "MaxBytes"},
		{"gauss-seidel?nb=4&tile=4G", ""},
		{"gauss-seidel?nb=5&tile=4G", "MaxBytes"},
		{"nstream?chunks=1&chunk=21G", ""}, // three arrays: 63G
		{"nstream?chunks=1&chunk=22G", "MaxBytes"},
		{"cg?blocks=2&ablock=34359738298&vblock=1", ""}, // + 6x2 vector bytes + 2 scalars: 64G
		{"cg?blocks=2&ablock=34359738299&vblock=1", "MaxBytes"},
		{"inthist?nb=2&imgtile=8G&hist=8G", ""}, // 4 x 16G
		{"inthist?nb=2&imgtile=8G&hist=8589934593", "MaxBytes"},
		{"qr?nt=2&tile=14G", ""}, // 4 x (14G + 14G/8): 63G
		{"qr?nt=2&tile=15G", "MaxBytes"},
		{"syminv?nt=2&tile=21G", ""}, // 3 lower-triangle tiles: 63G
		{"syminv?nt=2&tile=22G", "MaxBytes"},
		{"qr?nt=2&tile=9223372036854775807", "MaxBytes"},
	} {
		_, err := New(c.spec, apps.Tiny)
		if c.want == "" && err != nil {
			t.Errorf("New(%q): %v", c.spec, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("New(%q) = %v, want an error mentioning %s", c.spec, err, c.want)
		}
	}
	dir := t.TempDir()
	for name, body := range map[string]string{
		"bytes": `{"nodes":[{"weight":1},{"weight":1},{"weight":1}],"edges":[{"from":0,"to":1,"weight":68719476736},{"from":1,"to":2,"weight":1}]}`,
		"flops": `{"nodes":[{"weight":9223372036854775807}],"edges":[]}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New("file?path="+path, apps.Tiny); err == nil || !strings.Contains(err.Error(), "Max") {
			t.Errorf("file with oversized %s = %v, want a cap error", name, err)
		}
	}
	if _, err := New("file?path="+dir, apps.Tiny); err == nil || !strings.Contains(err.Error(), "regular file") {
		t.Errorf("file?path=<directory> = %v, want a not-a-regular-file error", err)
	}
}
