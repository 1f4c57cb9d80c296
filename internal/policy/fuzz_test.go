package policy

import (
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// FuzzPolicySpec drives arbitrary spec strings through New. Every input
// must yield an error or a policy — never a panic — and a returned policy
// must schedule tiny jacobi on the bullion (several windows, stealing on)
// into a run that passes AuditSchedule.
func FuzzPolicySpec(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	for _, spec := range []string{
		"RGP+LAS?matching=random&refine=off",
		"HEFT",
		"LAS?",
		"?x=1",
		"RGP?matching=heavy&matching=random",
		"RGP+LAS?refine=maybe",
	} {
		f.Add(spec)
	}
	app, err := apps.ByName("jacobi", apps.Tiny)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pol, err := New(spec)
		if err != nil {
			return
		}
		m := machine.New(machine.BullionS16(), sim.NewEngine())
		opts := rt.DefaultOptions()
		opts.WindowSize = 16
		r := rt.NewRuntime(m, pol, opts)
		app.Build(r)
		r.Run()
		if err := r.AuditSchedule(); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		r.Release()
	})
}
