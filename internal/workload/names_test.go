package workload

import (
	"fmt"
	"hash/fnv"
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
// workload, in build order, at small and paper scale: the names a builder
// formats must reach the graph unchanged. Builders format each name into
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
	}
	specs := append(apps.Names(), "random-layered", "forkjoin", "noop?tasks=300")
	mc := machine.BullionS16()
	for _, scale := range []apps.Scale{apps.Small, apps.Paper} {
		for _, spec := range specs {
			key := spec + "@" + scale.String()
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
	}
}
