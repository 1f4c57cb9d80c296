package sim

import (
	"math"
	"slices"
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
	active := activeFlows(n)
	for _, f := range active {
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
	for _, f := range active {
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

// activeFlows returns n's in-flight flows in ascending id, gathered from
// the resources' crossing lists rather than from the groups' flow lists
// the network keeps.
func activeFlows(n *Net) []*Flow {
	var active []*Flow
	for _, r := range n.resources {
		for _, f := range r.crossing {
			if !slices.Contains(active, f) {
				active = append(active, f)
			}
		}
	}
	slices.SortFunc(active, func(a, b *Flow) int { return a.id - b.id })
	return active
}

// completionTol is the completion oracle's relative byte tolerance. The
// oracle integrates a flow's settled rates segment by segment, while the
// network progresses the flow's remaining bytes in steps of its own: two
// chains of float products and differences over the same rates and spans,
// each step rounding by half an ulp (1.1e-16 of the volume), a few hundred
// steps at most on these scripts. 1e-12 of the volume covers both chains a
// few dozen times over and stays far below the 1e-6 bytes a flow may
// finish early by.
const completionTol = 1e-12

// rateSeg is one span of a flow's settled rate, from at until the next
// segment or the flow's end.
type rateSeg struct {
	at   Time
	rate float64
}

// completionRecord is what the completion oracle keeps of one live flow.
type completionRecord struct {
	id       int
	segs     []rateSeg
	pushouts int
}

// checkCompletions wires a completion oracle to n, which must not have
// started a flow yet. After every flush it records each live flow's settled
// rate; when a flow ends it integrates the recorded rates and checks the
// finish instant against the fluid definition, not against any ladder:
//
//   - by the finish instant, the rates have delivered all of the volume but
//     1e-6 bytes, the residue a due flow may finish with;
//   - the flow finishes no later than the ceiling of the instant its rates
//     deliver the whole volume, plus 1 ns per pushout: a completion event
//     that found the due flow more than 1e-6 bytes short and moved its
//     deadline.
//
// Both bounds widen by completionTol of the volume, converted to time at
// the rate the flow crossed its volume with.
func checkCompletions(t testing.TB, n *Net) {
	live := map[*Flow]*completionRecord{}
	n.eng.AddFlusher(func() {
		now := n.eng.Now()
		for f, rec := range live {
			k := len(rec.segs) - 1
			switch {
			case k >= 0 && rec.segs[k].rate == f.rate:
			case k >= 0 && rec.segs[k].at == now:
				rec.segs[k].rate = f.rate
			default:
				rec.segs = append(rec.segs, rateSeg{now, f.rate})
			}
		}
	})
	// A pushout is a completion event after which a flow that was due at
	// the event's instant is still in flight, due later.
	complete := n.completeFn
	var due []*Flow
	n.completeFn = func() {
		now := n.eng.Now()
		due = due[:0]
		for f := range live {
			if !f.starved && f.deadline == now {
				due = append(due, f)
			}
		}
		complete()
		for _, f := range due {
			if rec := live[f]; rec != nil && !f.finished && f.deadline > now {
				rec.pushouts++
			}
		}
	}
	n.SetFlowHooks(func(f *Flow) {
		live[f] = &completionRecord{id: f.id}
	}, func(f *Flow) {
		rec := live[f]
		delete(live, f)
		checkCompletion(t, rec, f.volume, n.eng.Now())
	})
}

// checkCompletion checks one flow that ends at now against its recorded
// rates (see checkCompletions).
func checkCompletion(t testing.TB, rec *completionRecord, volume float64, now Time) {
	t.Helper()
	tol := completionTol * volume
	delivered := 0.0
	exact, slack := math.Inf(1), 0.0 // the instant the rates deliver volume
	for i, s := range rec.segs {
		end := now
		if i+1 < len(rec.segs) {
			end = rec.segs[i+1].at
		}
		span := s.rate * float64(end-s.at)
		if math.IsInf(exact, 1) && s.rate > 0 && delivered+span >= volume {
			exact = float64(s.at) + (volume-delivered)/s.rate
			slack = tol / s.rate
		}
		delivered += span
	}
	if delivered < volume-1e-6-tol {
		t.Fatalf("t=%v: flow %d finished with %v of its %v bytes delivered by its rates %v",
			now, rec.id, delivered, volume, rec.segs)
	}
	if limit := math.Ceil(exact+slack) + float64(rec.pushouts); float64(now) > limit {
		t.Fatalf("t=%v: flow %d finished after %v, the ceiling of the instant %v its rates %v deliver its %v bytes plus %d pushouts",
			now, rec.id, limit, exact, rec.segs, volume, rec.pushouts)
	}
}
