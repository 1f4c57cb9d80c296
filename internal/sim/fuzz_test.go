package sim

import "testing"

// FuzzReallocate drives the production fluid network (deferred, batched,
// class-based water-filling of the churned resource groups) and the eager
// naive reference run per group through the same generated flow-churn
// script (via buildChurnCase, shared with the fixed equivalence suite),
// asserts bit-exact lockstep equality of clock, step count, completion
// times, flow and resource rates, carried bytes, remaining bytes, deadlines
// and starvation, checks both nets against the max-min oracle after every
// flush and every production completion against the completion oracle —
// see realloc_equiv_test.go for the comparison contract.
//
// The seed corpus in testdata/fuzz/FuzzReallocate pins the churn shapes
// that matter: bursts of same-instant starts and finishes (the batching
// stress), single-link bottlenecks with capped and starved flows, disjoint
// components whose caps straddle each other's fair shares, completion waves
// where many flows finish at one nanosecond, and three group traps: groups
// whose quotients lie within the fill's 1e-12 tolerance of each other, each
// of which must freeze at its own share (near-tie-groups), caps a group
// must freeze in one cap step while other groups' shares fall between them
// (cap-split-rounds), and short classes that join two groups and retire
// (linking-class-retires); and two per-flow timer shapes: flows in
// different groups, deadlined at different flushes, due at one nanosecond
// (timer-ties-cross-group), and flows whose completion event finds them
// more than 1e-6 bytes short and pushes them out (timer-pushouts).
// Corpus entries run as plain unit tests in normal `go test` invocations;
// `make fuzz-smoke` runs a short coverage-guided session on top.
func FuzzReallocate(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(48), uint64(6))  // machine-shaped fan-out bursts
	f.Add(uint64(2), uint64(1), uint64(80), uint64(3))  // single-link bottleneck, caps + starvation
	f.Add(uint64(3), uint64(2), uint64(64), uint64(4))  // disjoint components, straddling caps
	f.Add(uint64(4), uint64(3), uint64(72), uint64(2))  // merging/splitting random paths
	f.Add(uint64(5), uint64(4), uint64(90), uint64(7))  // same-instant completion waves
	f.Add(uint64(11), uint64(0), uint64(95), uint64(8)) // max-burst machine shape
	f.Fuzz(func(t *testing.T, seed, style, nOps, burst uint64) {
		caps, ops := buildChurnCase(seed, style, nOps, burst)
		runEquivalence(t, caps, ops)
	})
}
