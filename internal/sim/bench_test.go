package sim

import (
	"testing"
)

// BenchmarkReallocate measures one from-scratch max-min water-filling pass
// over a contended 8-socket-like network (16 resources, 32 capped flows
// crossing one or two resources each — the machine.Transfer shape).
func BenchmarkReallocate(b *testing.B) {
	e := NewEngine()
	n := NewNet(e)
	rs := make([]*Resource, 16)
	for i := range rs {
		rs[i] = n.NewResource("r", 30)
	}
	paths := make([][]*Resource, 32)
	for i := range paths {
		if i%2 == 0 {
			paths[i] = []*Resource{rs[i%16]}
		} else {
			paths[i] = []*Resource{rs[i%16], rs[(i+1)%16]}
		}
	}
	for i := 0; i < 32; i++ {
		n.StartFlowCapped(1e12, paths[i], 0.64, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.reallocate()
	}
}

// BenchmarkReallocateBatched measures a batched same-instant churn burst on
// the same network shape: 8 flows start at one timestamp (a task fanning out
// transfers) and the deferred flush pays for one redistribution instead of
// eight.
func BenchmarkReallocateBatched(b *testing.B) {
	e := NewEngine()
	n := NewNet(e)
	rs := make([]*Resource, 16)
	for i := range rs {
		rs[i] = n.NewResource("r", 30)
	}
	paths := make([][]*Resource, 32)
	for i := range paths {
		if i%2 == 0 {
			paths[i] = []*Resource{rs[i%16]}
		} else {
			paths[i] = []*Resource{rs[i%16], rs[(i+1)%16]}
		}
	}
	for i := 0; i < 32; i++ {
		n.StartFlowCapped(1e12, paths[i], 0.64, nil)
	}
	n.flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			n.StartFlowCapped(1e9, paths[(i+j)%32], 0.64, nil)
		}
		n.flush() // one redistribution for the whole burst
		for j := 0; j < 8; j++ {
			e.Step() // drain the 8 completions (each reflushes)
		}
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkFlowChurn measures the steady-state start/finish cycle: a working
// set of ~32 flows over 8 resources with completions and reallocations
// interleaved. The allocs/op of this benchmark is the package's zero-
// allocation contract — event slots, Flow structs and scratch buffers are
// all recycled, so steady state allocates nothing.
func BenchmarkFlowChurn(b *testing.B) {
	e := NewEngine()
	n := NewNet(e)
	rs := make([]*Resource, 8)
	paths := make([][]*Resource, 8)
	for i := range rs {
		rs[i] = n.NewResource("mc", 30)
		paths[i] = []*Resource{rs[i]}
	}
	// Prime the working set and the free lists before measuring.
	for i := 0; i < 64; i++ {
		n.StartFlow(4096, paths[i%8], nil)
		if n.ActiveFlows() > 32 {
			e.Step()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.StartFlow(4096, paths[i%8], nil)
		for n.ActiveFlows() > 32 {
			e.Step()
		}
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkTimerChurn measures schedule/cancel traffic on the indexed event
// heap — the pattern the fluid network's completion event generates.
func BenchmarkTimerChurn(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Keep a rolling window of pending timers.
	var pending [64]Timer
	for i := range pending {
		pending[i] = e.At(Time(i+1)<<20, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % len(pending)
		pending[slot].Stop()
		pending[slot] = e.At(e.Now()+Time(1+i%1024), fn)
		if i%16 == 0 {
			e.Step()
		}
	}
}

// TestFlowChurnSteadyStateAllocs pins the zero-allocation contract in the
// regular test suite, so a regression fails `go test` rather than only
// showing up in benchmark numbers.
func TestFlowChurnSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	rs := make([]*Resource, 8)
	paths := make([][]*Resource, 8)
	for i := range rs {
		rs[i] = n.NewResource("mc", 30)
		paths[i] = []*Resource{rs[i]}
	}
	for i := 0; i < 64; i++ {
		n.StartFlow(4096, paths[i%8], nil)
		if n.ActiveFlows() > 32 {
			e.Step()
		}
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		n.StartFlow(4096, paths[i%8], nil)
		for n.ActiveFlows() > 32 {
			e.Step()
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state flow churn allocates %v objects per op, want 0", avg)
	}
}

// BenchmarkReallocateMachine measures one from-scratch fill on the bullion
// shape: 8 sockets of {mc 30, port 12}, about 26 flows over 4 busy home
// sockets, local flows on the mc alone and 1-hop/2-hop flows on mc + port,
// each capped by its core bandwidth (coreBW: local, 1-hop, 2-hop). Unlike
// BenchmarkReallocate's single cap, this mix takes several cap and
// bottleneck rounds per fill, over about 12 flow classes.
func BenchmarkReallocateMachine(b *testing.B) {
	e := NewEngine()
	n := NewNet(e)
	rs := make([]*Resource, len(machineCaps))
	for i, c := range machineCaps {
		rs[i] = n.NewResource("r", c)
	}
	for i := 0; i < 26; i++ {
		home, kind := i%4, (i/4)%3
		path := []*Resource{rs[2*home]}
		if kind > 0 {
			path = append(path, rs[2*home+1])
		}
		n.StartFlowCapped(1e12, path, coreBW[kind], nil)
	}
	n.flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.reallocate()
	}
}

// machineChurn drives the production churn pattern on the bullion shape: 8
// sockets of {mc 30, port 12} carrying 32 long flows, local flows on the mc
// alone and 1-hop/2-hop flows on mc + port, each capped by its core
// bandwidth. Each op finishes one flow, starts one on the same socket with
// the next cap in rotation, and flushes. Classes are created and retired
// along the way, while the seven sockets the op did not touch keep their
// rates.
type machineChurn struct {
	n     *Net
	paths [8][2][]*Resource // per socket: local, remote
	flows []*Flow
	next  int
}

func newMachineChurn() *machineChurn {
	c := &machineChurn{n: NewNet(NewEngine())}
	rs := make([]*Resource, len(machineCaps))
	for i, cp := range machineCaps {
		rs[i] = c.n.NewResource("r", cp)
	}
	for s := range c.paths {
		c.paths[s] = [2][]*Resource{{rs[2*s]}, {rs[2*s], rs[2*s+1]}}
	}
	for i := 0; i < 32; i++ {
		c.flows = append(c.flows, c.start(i%8))
	}
	c.n.flush()
	return c
}

// start begins a flow on socket s, kind local, 1-hop or 2-hop in rotation.
func (c *machineChurn) start(s int) *Flow {
	kind := c.next % 3
	c.next++
	return c.n.StartFlowCapped(1e12, c.paths[s][min(kind, 1)], coreBW[kind], nil)
}

func (c *machineChurn) op(i int) {
	j := i % len(c.flows)
	c.n.finish(c.flows[j])
	c.flows[j] = c.start(j % 8)
	c.n.flush()
}

// BenchmarkReallocateChurn measures the fill as production runs it: one
// flow finishes and one starts on one socket, then the net flushes, so one
// group fills and the others keep their rates (see machineChurn).
func BenchmarkReallocateChurn(b *testing.B) {
	c := newMachineChurn()
	for i := 0; i < 64; i++ {
		c.op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.op(i)
	}
}
