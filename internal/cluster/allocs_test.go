package cluster

import (
	"testing"

	"numadag/internal/xrand"
)

// TestDispatchSteadyStateAllocs pins the placement step's allocation
// contract: once Init has sized a dispatcher, Pick and Update must be
// allocation-free for both implementations — the dispatcher sits on the
// per-arrival hot path of every service-mode run.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	const fleet = 256
	for _, spec := range []string{"kchoices?d=2", "idle"} {
		d, err := NewDispatcher(spec)
		if err != nil {
			t.Fatal(err)
		}
		d.Init(fleet, xrand.New(1))
		// Ring of in-flight placements: each cycle places one job and
		// completes the oldest once the ring is full, so loads churn without
		// ever going negative. Preallocated — the cycle itself must not
		// allocate.
		ring := make([]int, 64)
		head, count := 0, 0
		cycle := func() {
			m := d.Pick()
			d.Update(m, +1)
			if count == len(ring) {
				d.Update(ring[head], -1)
			} else {
				count++
			}
			ring[head] = m
			head = (head + 1) % len(ring)
		}
		if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
			t.Fatalf("%s: %.1f allocs/op in steady state, want 0", spec, avg)
		}
	}
}
