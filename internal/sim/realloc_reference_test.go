package sim

import "math"

// This file keeps the naive water-filling ladder — the seed implementation
// reallocate() used before the deferred/batched flush and the class-based
// fill — as a test-only reference, in the same spirit as the partition
// package's heap-based refiner reference, run once per resource group. The
// production fill must execute bit-for-bit the same float operations: the
// determinism goldens pin simulated physics to the nanosecond, so
// "equivalent" here means identical rates, identical deadlines, identical
// event order, not "close". The equivalence suite and FuzzReallocate drive
// a production net and a reference net through the same flow churn and
// compare them exactly.
//
// The reference differs from production in three deliberate ways:
//
//   - referenceWaterfill runs its rounds over individual flows, scanning
//     every resource of the group and every active flow each round
//     (O(R x F) crosses() tests), instead of over flow classes and the
//     per-resource crossing lists.
//   - It fills every group at every flush instead of only the groups on
//     the churn worklist; a clean group's rates come out bit-equal to the
//     ones its last fill gave it. It settles the worklist's resources
//     alone, as production does, so Carried compares bit for bit. The
//     groups themselves are the Net's own (the union-find over class paths,
//     which both nets run), so the two nets fill the same resource sets.
//   - newReferenceNet disables same-instant batching: every StartFlow and
//     every completion redistributes immediately, the historical one
//     recompute per churn event.

// newReferenceNet returns a Net that reallocates eagerly on every churn
// event through the naive ladder.
func newReferenceNet(eng *Engine) *Net {
	n := NewNet(eng)
	n.batch = false
	n.fill = n.referenceWaterfill
	return n
}

// crosses reports whether the flow's path includes r.
func (f *Flow) crosses(r *Resource) bool {
	for _, rr := range f.path {
		if rr == r {
			return true
		}
	}
	return false
}

// referenceWaterfill is the seed max-min fill, run once per resource
// group: all-resources share scans, all-flows cap scans, and crosses()
// tests against every active flow for every bottleneck resource, each
// restricted to the group. It keeps its residuals and counts in arrays of
// its own, sharing no scratch with the production fill, and takes the
// active flows from the crossing lists, not from the groups' flow lists.
func (n *Net) referenceWaterfill(now Time) {
	active := activeFlows(n)
	residual := make([]float64, len(n.resources))
	unfrozen := make([]int, len(n.resources))
	frozen := map[*Flow]bool{}
	// freezeFlow fixes a flow's rate and removes its demand from the
	// residual capacities: one step of the reference ladder.
	freezeFlow := func(f *Flow, rate float64) {
		f.rate = rate
		frozen[f] = true
		for _, rr := range f.path {
			residual[rr.id] -= rate
			if residual[rr.id] < 0 {
				residual[rr.id] = 0
			}
			unfrozen[rr.id]--
		}
	}
	for i, r := range n.resources {
		residual[i] = r.capacity
	}
	for _, f := range active {
		for _, r := range f.path {
			unfrozen[r.id]++
		}
	}
	for g := range n.groups {
		left := 0
		for _, f := range active {
			if f.path[0].gid == g {
				left++
			}
		}
		for left > 0 {
			// Bottleneck-resource share.
			share := math.Inf(1)
			for id, r := range n.resources {
				if r.gid != g || unfrozen[id] == 0 {
					continue
				}
				if s := residual[id] / float64(unfrozen[id]); s < share {
					share = s
				}
			}
			// A flow whose cap is at or below the share binds first.
			capBound := false
			for _, f := range active {
				if f.path[0].gid == g && !frozen[f] && f.maxRate <= share {
					freezeFlow(f, f.maxRate)
					left--
					capBound = true
				}
			}
			if capBound {
				continue // resource shares changed; recompute
			}
			// Freeze every unfrozen flow crossing a bottleneck resource.
			progressed := false
			for _, r := range n.resources {
				if r.gid != g || unfrozen[r.id] == 0 {
					continue
				}
				if residual[r.id]/float64(unfrozen[r.id]) > share*(1+1e-12) {
					continue
				}
				for _, f := range active {
					if frozen[f] || !f.crosses(r) {
						continue
					}
					freezeFlow(f, share)
					left--
					progressed = true
				}
			}
			if !progressed {
				panic("sim: reference water-filling made no progress")
			}
		}
	}
	sums := make([]float64, len(n.resources))
	for _, f := range active {
		for _, res := range f.path {
			sums[res.id] += f.rate
		}
	}
	for _, res := range n.resources {
		if res.gid >= 0 && n.groups[res.gid].listed {
			res.settle(now, sums[res.id])
		}
	}
}
