package sim

import "math"

// Inspection helpers only the tests call. Production starts every flow
// capped (StartFlowCapped) and reads the network through Resource.Rate,
// Carried and the flow hooks, so these live with the tests.

// StartFlow is StartFlowCapped without a rate cap.
func (n *Net) StartFlow(bytes float64, path []*Resource, done func()) *Flow {
	return n.StartFlowCapped(bytes, path, math.Inf(1), done)
}

// ActiveFlows returns the number of in-flight flows.
func (n *Net) ActiveFlows() int { return n.live }

// ActiveFlows returns the number of flows currently crossing the resource
// (a flow whose path names the resource twice counts twice).
func (r *Resource) ActiveFlows() int { return len(r.crossing) }

// Remaining returns the bytes not yet transferred, progressed to the current
// simulated time.
func (f *Flow) Remaining() float64 {
	if f.finished {
		return 0
	}
	f.net.flush() // deferred reallocation: refresh the rate before reading
	elapsed := float64(f.net.eng.Now() - f.lastUpdate)
	rem := f.remaining - elapsed*f.rate
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Pending returns the number of queued events. Stopped timers leave the
// queue immediately, so this is a live count, in O(1).
func (e *Engine) Pending() int { return len(e.heap) }
