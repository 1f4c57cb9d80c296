package sim

import (
	"testing"
)

// Allocation-contract tests for the simulator hot path, run as blocking
// deterministic tests (testing.AllocsPerRun, not benchmarks) by
// `make test-allocs` and the CI allocs gate. Together with
// TestFlowChurnSteadyStateAllocs (bench_test.go) they assert that steady-
// state operation — including the deferred/batched reallocation path —
// allocates nothing: event slots, Flow structs, flow classes, crossing
// lists and fill worklists are all recycled.

// TestBatchedFanoutSteadyStateAllocs pins the batching path: bursts of
// same-instant starts over multiple sockets' resource pairs, flushed once
// per instant by the engine hook, then drained through batched completion
// waves. The starts cycle through the three core caps, so flow classes are
// created and retired inside the measured loop.
func TestBatchedFanoutSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	caps := make([]*Resource, 16)
	for i := range caps {
		if i%2 == 0 {
			caps[i] = n.NewResource("mc", 30)
		} else {
			caps[i] = n.NewResource("port", 12)
		}
	}
	paths := make([][]*Resource, 8)
	for s := range paths {
		if s%2 == 0 {
			paths[s] = []*Resource{caps[2*s]}
		} else {
			paths[s] = []*Resource{caps[2*s], caps[2*s+1]}
		}
	}
	burst := func(i int) {
		// 8 same-instant starts across 4 components: one deferred flush.
		for j := 0; j < 8; j++ {
			n.StartFlowCapped(4096+float64(j), paths[(i+j)%8], coreBW[j%3], nil)
		}
		for n.ActiveFlows() > 24 {
			e.Step()
		}
	}
	for i := 0; i < 32; i++ {
		burst(i) // warm flow and class pools, event arena, lists and scratch
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		burst(i)
		i++
	})
	if avg != 0 {
		t.Fatalf("batched fan-out churn allocates %v objects per op, want 0", avg)
	}
}

// TestReallocateFullSteadyStateAllocs pins the from-scratch fill itself: a
// warmed net recomputing every rate must not allocate.
func TestReallocateFullSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	rs := make([]*Resource, 16)
	for i := range rs {
		rs[i] = n.NewResource("r", 30)
	}
	for i := 0; i < 32; i++ {
		path := []*Resource{rs[i%16], rs[(i+5)%16]}
		n.StartFlowCapped(1e12, path, 0.64, nil)
	}
	n.reallocate() // warm scratch
	avg := testing.AllocsPerRun(200, func() {
		n.reallocate()
	})
	if avg != 0 {
		t.Fatalf("full reallocation allocates %v objects per op, want 0", avg)
	}
}

// TestReallocateChurnSteadyStateAllocs pins the per-group flush under
// production churn: warmed bullion-shaped churn (see machineChurn) finishes
// and starts a flow per op on one socket, creating and retiring flow
// classes, and only that socket's group is progressed, filled and
// re-deadlined. Groups, their flow lists and worklists are all reused.
func TestReallocateChurnSteadyStateAllocs(t *testing.T) {
	c := newMachineChurn()
	for i := 0; i < 256; i++ {
		c.op(i) // warm the flow and class pools and scratch
	}
	stamp := c.n.stamp
	c.op(257) // churns socket 1 (see machineChurn.op)
	if got, want := filledGroups(c.n, stamp), c.paths[1][0][0].gid; len(got) != 1 || got[0] != want {
		t.Fatalf("a churn on socket 1 filled groups %v, want only its group %d", got, want)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		c.op(i)
		i++
	})
	if avg != 0 {
		t.Fatalf("churn filling one group allocates %v objects per op, want 0", avg)
	}
	// The ops flush the Net directly and never step the engine, so it stays
	// listed for the engine's flush the whole time — once. AllocsPerRun
	// rounds down, so a list that grew by one entry per op would still
	// average 0 allocs above.
	if l := len(c.n.eng.dirty); l != 1 {
		t.Fatalf("engine dirty list holds %d entries after the churn ops, want 1", l)
	}
}
