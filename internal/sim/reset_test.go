package sim

import (
	"testing"
)

// flowScenario drives a churn-heavy schedule — staggered capped flows over
// shared resources, a same-instant burst, a zero-byte flow — and returns
// the observables the determinism goldens pin.
func flowScenario(eng *Engine, n *Net, rs []*Resource) (final Time, steps uint64, bytes float64, util []float64) {
	done := 0
	cb := func() { done++ }
	n.StartFlowCapped(1000, rs[:1], 2.5, cb)
	eng.After(10, func() {
		n.StartFlowCapped(4000, rs, 8, cb)
		n.StartFlowCapped(300, rs[1:], 1, cb)
	})
	eng.After(10, func() { n.StartFlow(0, nil, cb) })
	eng.After(250, func() { n.StartFlow(2500, rs[:1], cb) })
	final = eng.Run()
	if done != 5 {
		panic("flowScenario: not all flows completed")
	}
	util = make([]float64, len(rs))
	for i, r := range rs {
		util[i] = utilization(r, final)
	}
	return final, eng.Steps(), n.TotalBytes, util
}

// TestResetEquivalence pins the pooling contract: an engine/net pair that
// ran a full scenario and was Reset produces bit-identical observables to a
// freshly constructed pair — clock, step count, byte totals and resource
// utilization integrals all restart from zero.
func TestResetEquivalence(t *testing.T) {
	fresh := NewEngine()
	fn := NewNet(fresh)
	frs := []*Resource{fn.NewResource("a", 10), fn.NewResource("b", 4)}
	wantFinal, wantSteps, wantBytes, wantUtil := flowScenario(fresh, fn, frs)

	eng := NewEngine()
	n := NewNet(eng)
	rs := []*Resource{n.NewResource("a", 10), n.NewResource("b", 4)}
	for round := 0; round < 3; round++ {
		final, steps, bytes, util := flowScenario(eng, n, rs)
		if final != wantFinal || steps != wantSteps || bytes != wantBytes {
			t.Fatalf("round %d: (final, steps, bytes) = (%v, %d, %v), fresh run gave (%v, %d, %v)",
				round, final, steps, bytes, wantFinal, wantSteps, wantBytes)
		}
		for i := range util {
			if util[i] != wantUtil[i] {
				t.Fatalf("round %d: resource %d utilization %v != fresh %v", round, i, util[i], wantUtil[i])
			}
		}
		eng.Reset()
		n.Reset()
		if eng.Now() != 0 || eng.Steps() != 0 || eng.Pending() != 0 {
			t.Fatal("engine not rewound")
		}
		if n.ActiveFlows() != 0 || n.TotalBytes != 0 {
			t.Fatal("net not rewound")
		}
		for _, r := range rs {
			if utilization(r, 1000) != 0 || r.ActiveFlows() != 0 {
				t.Fatal("resource integrals not rewound")
			}
		}
	}
}

// TestResetInvalidatesTimers pins the handle-safety half of Reset: Timer
// values captured before a Reset must be inert afterwards — Stop and
// Reschedule on them are no-ops even though their slots were recycled for
// new events.
func TestResetInvalidatesTimers(t *testing.T) {
	eng := NewEngine()
	var stale []Timer
	for i := 0; i < 4; i++ {
		stale = append(stale, eng.After(Time(100+i), func() {}))
	}
	eng.Run()
	stale = append(stale, eng.After(500, func() {})) // never fired
	eng.Reset()

	fired := 0
	for i := 0; i < 8; i++ {
		eng.After(Time(10+i), func() { fired++ })
	}
	for _, s := range stale {
		s.Stop()
		if eng.Reschedule(s, 5000) {
			t.Fatal("stale timer reported live after Reset")
		}
	}
	if eng.Pending() != 8 {
		t.Fatalf("stale handles disturbed the queue: %d pending, want 8", eng.Pending())
	}
	eng.Run()
	if fired != 8 {
		t.Fatalf("%d events fired, want 8", fired)
	}
}

// TestResetMidFlight pins Reset against a half-run schedule: abandoned
// events and in-flight flows must vanish without firing, and the next run
// on the same pair must match a fresh one.
func TestResetMidFlight(t *testing.T) {
	eng := NewEngine()
	n := NewNet(eng)
	rs := []*Resource{n.NewResource("a", 10), n.NewResource("b", 4)}
	leaked := false
	n.StartFlowCapped(1e6, rs, 8, func() { leaked = true })
	eng.After(50, func() { leaked = true })
	eng.RunUntil(20)

	eng.Reset()
	n.Reset()
	final, steps, bytes, _ := flowScenario(eng, n, rs)

	fresh := NewEngine()
	fn := NewNet(fresh)
	frs := []*Resource{fn.NewResource("a", 10), fn.NewResource("b", 4)}
	wantFinal, wantSteps, wantBytes, _ := flowScenario(fresh, fn, frs)
	if leaked {
		t.Fatal("abandoned event or flow callback fired after Reset")
	}
	if final != wantFinal || steps != wantSteps || bytes != wantBytes {
		t.Fatalf("post-reset run (%v, %d, %v) != fresh run (%v, %d, %v)",
			final, steps, bytes, wantFinal, wantSteps, wantBytes)
	}
}
