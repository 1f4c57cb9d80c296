package workload

import (
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
)

// FuzzWorkloadSpec drives arbitrary spec strings through the whole
// resolution path: ParseSpec and New, then Instantiate at tiny scale. Every
// input must yield an error or a graph of at most MaxTasks tasks — never a
// panic or a hang. The paper apps validate their sizes but have no
// up-front task count, so an app spec is built only at its presets (no size
// parameters). The seed corpus under testdata/fuzz holds the two crashers
// this fuzzer was written for: cv=NaN (a panic in rt.Submit) and
// forkjoin?depth=64&fanout=4 (an unbounded build).
func FuzzWorkloadSpec(f *testing.F) {
	for _, spec := range []string{
		"random-layered?layers=3&width=4",
		"random-layered?layers=4&width=3&fan=2&cv=0.5&seed=7",
		"random-layered?bytes=1K&flops=1e3",
		"forkjoin?depth=3&fanout=2",
		"forkjoin?depth=2&fanout=3&cv=0&bytes=4K",
		"noop?tasks=4&flops=4096",
		"noop?tasks=0",
		"jacobi",
		"qr?scale=tiny",
		"cg?blocks=4",
		"file?path=../../testdata/dags/diamond.json",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := New(spec, apps.Tiny)
		if err != nil {
			return
		}
		if _, err := apps.ByName(w.Name, apps.Tiny); err == nil && w.Spec != w.Name {
			return // a paper app with explicit sizes: no task cap to bound the build
		}
		r, err := w.Instantiate(machine.TwoSocketXeon())
		if err != nil {
			return
		}
		if n := r.Graph().Len(); n > MaxTasks {
			t.Fatalf("%q built %d tasks, above MaxTasks=%d", spec, n, MaxTasks)
		}
		r.Release()
	})
}
