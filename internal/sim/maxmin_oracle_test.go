package sim

import (
	"math"
	"testing"
)

// maxMinTol is the max-min oracle's relative float tolerance. A fill freezes
// every flow crossing a resource whose per-flow quotient lies within 1e-12 of
// the round's share, so a bottleneck can keep up to 1e-12 of its capacity
// unallocated, and each settled rate and residual is a chain of float
// subtractions, divisions and sums that round by half an ulp (1.1e-16
// relative) each, a few dozen per resource on these nets. 1e-9 covers both a
// thousand times over and still fails any flow that could grow by a
// billionth of a resource's capacity.
const maxMinTol = 1e-9

// checkMaxMin checks a settled Net against the definition of a max-min fair
// allocation with per-flow caps, not against any ladder:
//
//   - no flow runs above its cap or below zero;
//   - no resource carries more than its capacity, and its Rate is the sum of
//     the rates of the flows crossing it;
//   - every flow is at its cap, or crosses a saturated resource on which no
//     flow has a higher rate — its bottleneck.
//
// A flow whose path names a resource twice loads it twice.
func checkMaxMin(t testing.TB, n *Net) {
	t.Helper()
	load := make([]float64, len(n.resources)) // the crossing flows' total rate
	top := make([]float64, len(n.resources))  // the highest crossing rate
	for _, f := range n.active {
		if !(f.rate >= 0 && f.rate <= f.maxRate) {
			t.Fatalf("t=%v: flow %d runs at %v, outside [0, cap %v]", n.eng.Now(), f.id, f.rate, f.maxRate)
		}
		for _, r := range f.path {
			load[r.id] += f.rate
			top[r.id] = max(top[r.id], f.rate)
		}
	}
	for _, r := range n.resources {
		if load[r.id] > r.capacity*(1+maxMinTol) {
			t.Fatalf("t=%v: resource %s carries %v over its capacity %v", n.eng.Now(), r.name, load[r.id], r.capacity)
		}
		if math.Abs(r.rate-load[r.id]) > r.capacity*maxMinTol {
			t.Fatalf("t=%v: resource %s reports rate %v, its flows sum to %v", n.eng.Now(), r.name, r.rate, load[r.id])
		}
	}
	for _, f := range n.active {
		if f.rate == f.maxRate {
			continue
		}
		bottleneck := false
		for _, r := range f.path {
			if load[r.id] >= r.capacity*(1-maxMinTol) && top[r.id] <= f.rate*(1+maxMinTol) {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			t.Fatalf("t=%v: flow %d at %v is below its cap %v and crosses no saturated resource on which its rate is the highest",
				n.eng.Now(), f.id, f.rate, f.maxRate)
		}
	}
}
