package sim

import (
	"fmt"
	"math"
	"testing"

	"numadag/internal/xrand"
)

// Full-vs-incremental reallocation equivalence harness.
//
// A production Net (deferred, batched, class-based water-filling of the
// churned resource groups) and a reference Net (eager per-event recompute
// through the naive seed ladder run per group, see
// realloc_reference_test.go) are driven
// through an identical flow-churn script on two engines, stopped at every
// churn instant, and compared bit-for-bit: simulated clock, executed steps,
// queued events, every completion time, every resource's rate and carried
// bytes, and the rate / remaining-bytes / deadline / starvation state of
// every in-flight flow. Nothing is allowed to drift by even an ulp — the
// determinism goldens pin physics to the nanosecond, and a one-ulp rate
// difference becomes a one-nanosecond ceil difference becomes a different
// schedule.

// churnOp is one scripted StartFlowCapped call. A chained op ignores at and
// starts from the done callback of the op before it, in the instant that op
// completes.
type churnOp struct {
	at    Time
	vol   float64
	path  []int // resource indices
	maxR  float64
	chain bool
}

// scriptRun drives one Net through a churn script.
type scriptRun struct {
	eng    *Engine
	net    *Net
	rs     []*Resource
	flows  []*Flow
	doneAt []Time  // completion instant per op, -1 while in flight
	order  []int32 // callback interleaving: op i start = i<<1, done = i<<1|1
}

func startScript(mk func(*Engine) *Net, caps []float64, ops []churnOp) *scriptRun {
	eng := NewEngine()
	net := mk(eng)
	rs := make([]*Resource, len(caps))
	for i, c := range caps {
		rs[i] = net.NewResource(fmt.Sprintf("r%d", i), c)
	}
	return scheduleScript(eng, net, rs, ops)
}

// scheduleScript schedules ops on an existing engine and net over the
// net's resources rs.
func scheduleScript(eng *Engine, net *Net, rs []*Resource, ops []churnOp) *scriptRun {
	sr := &scriptRun{eng: eng, net: net, rs: rs}
	sr.flows = make([]*Flow, len(ops))
	sr.doneAt = make([]Time, len(ops))
	for i := range sr.doneAt {
		sr.doneAt[i] = -1
	}
	starts := make([]func(), len(ops))
	for i, op := range ops {
		i, op := i, op
		path := make([]*Resource, len(op.path))
		for j, id := range op.path {
			path[j] = rs[id]
		}
		starts[i] = func() {
			sr.order = append(sr.order, int32(i)<<1)
			sr.flows[i] = net.StartFlowCapped(op.vol, path, op.maxR, func() {
				sr.doneAt[i] = eng.Now()
				sr.order = append(sr.order, int32(i)<<1|1)
				if i+1 < len(ops) && ops[i+1].chain {
					starts[i+1]()
				}
			})
		}
	}
	for i, op := range ops {
		if !op.chain {
			eng.At(op.at, starts[i])
		}
	}
	return sr
}

// compareState asserts bit-exact equality of the two runs' observable and
// completion-relevant state. Called between instants, where both nets are
// flushed.
func compareState(t *testing.T, tag string, a, b *scriptRun) {
	t.Helper()
	if a.eng.Now() != b.eng.Now() {
		t.Fatalf("%s: clock diverged: production %v, reference %v", tag, a.eng.Now(), b.eng.Now())
	}
	if a.eng.Steps() != b.eng.Steps() {
		t.Fatalf("%s: executed steps diverged: production %d, reference %d", tag, a.eng.Steps(), b.eng.Steps())
	}
	if a.eng.Pending() != b.eng.Pending() {
		t.Fatalf("%s: pending events diverged: production %d, reference %d", tag, a.eng.Pending(), b.eng.Pending())
	}
	if math.Float64bits(a.net.TotalBytes) != math.Float64bits(b.net.TotalBytes) {
		t.Fatalf("%s: TotalBytes diverged: production %v, reference %v", tag, a.net.TotalBytes, b.net.TotalBytes)
	}
	for i, ra := range a.rs {
		rb, now := b.rs[i], a.eng.Now()
		if math.Float64bits(ra.Rate()) != math.Float64bits(rb.Rate()) ||
			math.Float64bits(ra.Carried(now)) != math.Float64bits(rb.Carried(now)) {
			t.Fatalf("%s: resource %d diverged: production rate %v carried %v, reference rate %v carried %v",
				tag, i, ra.Rate(), ra.Carried(now), rb.Rate(), rb.Carried(now))
		}
	}
	if len(a.order) != len(b.order) {
		t.Fatalf("%s: callback count diverged: production %d, reference %d", tag, len(a.order), len(b.order))
	}
	for i := range a.order {
		if a.order[i] != b.order[i] {
			t.Fatalf("%s: callback interleaving diverged at %d: production op %d/%d, reference op %d/%d",
				tag, i, a.order[i]>>1, a.order[i]&1, b.order[i]>>1, b.order[i]&1)
		}
	}
	for i := range a.doneAt {
		if a.doneAt[i] != b.doneAt[i] {
			t.Fatalf("%s: flow %d completion diverged: production %v, reference %v", tag, i, a.doneAt[i], b.doneAt[i])
		}
		if a.doneAt[i] >= 0 || a.flows[i] == nil {
			continue // finished (handle may be recycled) or not yet started
		}
		fa, fb := a.flows[i], b.flows[i]
		if fa.finished != fb.finished {
			t.Fatalf("%s: flow %d finished flag diverged", tag, i)
		}
		if fa.finished {
			continue
		}
		if math.Float64bits(fa.rate) != math.Float64bits(fb.rate) {
			t.Fatalf("%s: flow %d rate diverged: production %x (%v), reference %x (%v)",
				tag, i, math.Float64bits(fa.rate), fa.rate, math.Float64bits(fb.rate), fb.rate)
		}
		if math.Float64bits(fa.remaining) != math.Float64bits(fb.remaining) {
			t.Fatalf("%s: flow %d remaining diverged: production %v, reference %v", tag, i, fa.remaining, fb.remaining)
		}
		if fa.starved != fb.starved {
			t.Fatalf("%s: flow %d starvation diverged: production %v, reference %v", tag, i, fa.starved, fb.starved)
		}
		if !fa.starved && fa.deadline != fb.deadline {
			t.Fatalf("%s: flow %d deadline diverged: production %v, reference %v", tag, i, fa.deadline, fb.deadline)
		}
	}
}

// runEquivalence executes the script on a production and a reference net in
// lockstep, comparing at every churn instant and after the drain.
func runEquivalence(t *testing.T, caps []float64, ops []churnOp) {
	t.Helper()
	lockstep(t, startScript(NewNet, caps, ops), startScript(newReferenceNet, caps, ops), ops)
}

// lockstep runs two nets scheduled with the same ops, comparing them at
// every churn instant and after the drain, checks each against the max-min
// oracle after every flush, and checks every production completion against
// the completion oracle.
func lockstep(t *testing.T, prod, ref *scriptRun, ops []churnOp) {
	t.Helper()
	prod.eng.AddFlusher(func() { checkMaxMin(t, prod.net) })
	ref.eng.AddFlusher(func() { checkMaxMin(t, ref.net) })
	checkCompletions(t, prod.net)
	var last Time = -1
	for _, op := range ops {
		if op.chain || op.at == last {
			continue // one checkpoint per scheduled instant
		}
		last = op.at
		prod.eng.RunUntil(op.at)
		ref.eng.RunUntil(op.at)
		compareState(t, fmt.Sprintf("t=%v", op.at), prod, ref)
	}
	prod.eng.Run()
	ref.eng.Run()
	compareState(t, "drained", prod, ref)
	if prod.eng.Pending() != 0 || prod.net.ActiveFlows() != 0 {
		t.Fatalf("production net did not drain: %d events, %d flows", prod.eng.Pending(), prod.net.ActiveFlows())
	}
	for i, d := range prod.doneAt {
		if d < 0 {
			t.Fatalf("flow %d never completed", i)
		}
	}
}

// Machine-model constants: the bullion's per-socket controller and port
// bandwidths and the three core-concurrency caps (local, 1-hop, 2-hop).
var (
	machineCaps = func() []float64 {
		caps := make([]float64, 16)
		for s := 0; s < 8; s++ {
			caps[2*s] = 30.0   // memory controller
			caps[2*s+1] = 12.0 // interconnect port
		}
		return caps
	}()
	coreBW = []float64{640.0 / 90, 640.0 / 125, 640.0 / 160}
)

// buildChurnCase generates a deterministic churn script. style selects the
// network/traffic shape; burst controls how many flows share one start
// instant (the same-instant batching stress).
func buildChurnCase(seed, style, nOpsRaw, burstRaw uint64) ([]float64, []churnOp) {
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	nOps := int(nOpsRaw%96) + 4
	burst := int(burstRaw%8) + 1
	var caps []float64
	var ops []churnOp
	now := Time(0)
	pick := func(ids ...int) []int { return ids }
	switch style % 9 {
	case 0:
		// Machine-shaped: per-socket {mc, port} components, capped local and
		// remote transfers — the exact shape rt.fanOutTransfers produces.
		caps = machineCaps
		for len(ops) < nOps {
			now += Time(rng.Intn(2000)) // 0 keeps whole bursts at one instant
			for j := 0; j < burst && len(ops) < nOps; j++ {
				home := rng.Intn(8)
				op := churnOp{at: now, vol: float64(rng.Intn(1 << 20)), maxR: coreBW[rng.Intn(3)]}
				if rng.Intn(3) == 0 {
					op.path = pick(2*home, 2*home+1) // remote: mc + port
				} else {
					op.path = pick(2 * home) // local: mc only
				}
				ops = append(ops, op)
			}
		}
	case 1:
		// Single-link bottleneck: every flow crosses resource 0, most also a
		// private second resource; starvation-prone tiny capacity.
		caps = []float64{1.0 + rng.Float64()}
		for i := 0; i < 6; i++ {
			caps = append(caps, 4.0+8.0*rng.Float64())
		}
		for len(ops) < nOps {
			now += Time(rng.Intn(5000))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				op := churnOp{at: now, vol: float64(1 + rng.Intn(1<<16)), maxR: math.Inf(1)}
				if rng.Intn(4) > 0 {
					op.maxR = 0.25 + 4*rng.Float64()
				}
				if r := rng.Intn(len(caps)); r > 0 {
					op.path = pick(0, r)
				} else {
					op.path = pick(0)
				}
				ops = append(ops, op)
			}
		}
	case 2:
		// Disjoint components with caps straddling each other's fair shares:
		// each component's cap steps must see its own share only.
		caps = []float64{30, 12, 30, 12, 7, 3}
		straddle := []float64{640.0 / 90, 640.0 / 125, 4.0, 2.5, 1.0, 0.6}
		for len(ops) < nOps {
			now += Time(rng.Intn(1500))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				comp := rng.Intn(3)
				op := churnOp{at: now, vol: float64(1 + rng.Intn(1<<18)), maxR: straddle[rng.Intn(len(straddle))]}
				if rng.Intn(2) == 0 {
					op.path = pick(2 * comp)
				} else {
					op.path = pick(2*comp, 2*comp+1)
				}
				ops = append(ops, op)
			}
		}
	case 3:
		// Random overlapping paths: components merge and split as flows come
		// and go; mixes capped, uncapped and zero-byte flows.
		nr := 3 + rng.Intn(10)
		for i := 0; i < nr; i++ {
			caps = append(caps, 0.5+31.5*rng.Float64())
		}
		for len(ops) < nOps {
			now += Time(rng.Intn(3000))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				op := churnOp{at: now, vol: float64(rng.Intn(1 << 19)), maxR: math.Inf(1)}
				if rng.Intn(3) > 0 {
					op.maxR = 0.1 + 16*rng.Float64()
				}
				k := 1 + rng.Intn(3)
				seen := map[int]bool{}
				for len(op.path) < k {
					r := rng.Intn(nr)
					if !seen[r] {
						seen[r] = true
						op.path = append(op.path, r)
					}
				}
				ops = append(ops, op)
			}
		}
	case 5:
		// Near-tie groups: single-resource groups whose capacities sit a few
		// 1e-13 apart, so equal flow counts put their quotients inside the
		// fill's 1e-12 tolerance of each other: each group must still freeze
		// at its own share.
		for i := 0; i < 4; i++ {
			caps = append(caps, 10*(1-float64(i)*3e-13))
		}
		for len(ops) < nOps {
			now += Time(rng.Intn(2000))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				op := churnOp{at: now, vol: float64(1 + rng.Intn(1<<20)), maxR: math.Inf(1)}
				if rng.Intn(4) == 0 {
					op.maxR = 1 + 4*rng.Float64()
				}
				op.path = pick(rng.Intn(len(caps)))
				ops = append(ops, op)
			}
		}
	case 6:
		// Cap splits across fills: groups of capacity 12 hold caps whose
		// subtraction order shows in the last ulp of an uncapped flow's rate
		// (12-2.3-1.1 != 12-1.1-2.3), next to splitter groups whose shares
		// fall between those caps and come and go: a group's caps must
		// freeze in one cap step whatever the other groups' shares are.
		caps = []float64{12, 12, 2, 1.5, 3}
		capped := []float64{2.3, 1.1, math.Inf(1)}
		for len(ops) < nOps {
			now += Time(rng.Intn(3000))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				op := churnOp{at: now, path: pick(rng.Intn(len(caps)))}
				if op.path[0] < 2 {
					op.vol, op.maxR = float64(1+rng.Intn(1<<22)), capped[rng.Intn(3)]
				} else {
					op.vol, op.maxR = float64(1+rng.Intn(1<<12)), math.Inf(1)
				}
				ops = append(ops, op)
			}
		}
	case 7:
		// Linking classes: mostly single-resource flows, plus short flows
		// on a pair of resources that join two groups and then retire; the
		// joined groups stay joined while churn moves between them.
		caps = []float64{30, 12, 30, 12, 20, 8}
		for len(ops) < nOps {
			now += Time(rng.Intn(2500))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				op := churnOp{at: now, vol: float64(1 + rng.Intn(1<<20)), maxR: coreBW[rng.Intn(3)]}
				if rng.Intn(3) == 0 {
					op.maxR = math.Inf(1)
				}
				a := rng.Intn(len(caps))
				if rng.Intn(6) == 0 {
					op.vol = float64(1 + rng.Intn(1<<12))
					op.path = pick(a, (a+1+rng.Intn(len(caps)-1))%len(caps))
				} else {
					op.path = pick(a)
				}
				ops = append(ops, op)
			}
		}
	case 8:
		// Per-flow timers: eight single-resource groups wide enough that
		// flows run at their caps. On r0-r3 volumes are whole nanoseconds
		// at exactly representable caps and starts are whole microseconds,
		// so flows in different groups started at different instants fall
		// due at one nanosecond. r4-r7 carry at most one flow each, whose
		// volume divides by its cap onto a whole nanosecond in float but
		// leaves more than 1e-6 bytes there: its completion event pushes it
		// out.
		caps = []float64{100, 100, 100, 100, 100, 100, 100, 100}
		exact := []float64{2.5, 1.25, 4, 0.5}
		pushouts := [][2]float64{{2.3, 12482610508}, {1.1, 16350309091.600002},
			{5.12, 16227291622.400002}, {640.0 / 90, 30962693944.88889}}
		used := 0
		for len(ops) < nOps {
			now += Time(1000 * rng.Intn(4))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				if used < len(pushouts) && rng.Intn(4) == 0 {
					p := pushouts[used]
					ops = append(ops, churnOp{at: now, vol: p[1], path: pick(4 + used), maxR: p[0]})
					used++
					continue
				}
				rate := exact[rng.Intn(len(exact))]
				ops = append(ops, churnOp{at: now, vol: rate * float64(1000*(1+rng.Intn(8))),
					path: pick(rng.Intn(4)), maxR: rate})
			}
		}
	default:
		// Completion-wave stress: equal volumes on shared resources, so many
		// flows finish at the same nanosecond and the finish side of batching
		// is exercised as hard as the start side.
		caps = []float64{16, 16, 8}
		for len(ops) < nOps {
			now += Time(rng.Intn(800))
			vol := float64(1024 * (1 + rng.Intn(64)))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				op := churnOp{at: now, vol: vol, maxR: math.Inf(1)}
				op.path = pick(rng.Intn(3))
				ops = append(ops, op)
			}
		}
	}
	return caps, ops
}

// TestReallocateEquivalenceScripted pins hand-written corners: same-instant
// fan-out bursts, the staggered-arrival shape, cap-straddling disjoint
// components, a zero-byte / empty-path mix, and the flow-class corners of
// the production fill: mixed caps frozen in one cap round, a class emptied
// and re-created in one instant, a path naming a resource twice, and equal
// paths built from distinct slices.
func TestReallocateEquivalenceScripted(t *testing.T) {
	mc, port := 0, 1
	t.Run("fanout-burst", func(t *testing.T) {
		// One task's read phase: four transfers at one instant, two sockets.
		runEquivalence(t, machineCaps, []churnOp{
			{at: 0, vol: 1 << 20, path: []int{2 * 0}, maxR: coreBW[0]},
			{at: 0, vol: 3 << 18, path: []int{2 * 1, 2*1 + 1}, maxR: coreBW[1]},
			{at: 0, vol: 5 << 16, path: []int{2 * 1, 2*1 + 1}, maxR: coreBW[2]},
			{at: 0, vol: 9 << 14, path: []int{2 * 0}, maxR: coreBW[0]},
			{at: 977, vol: 1 << 19, path: []int{2 * 0}, maxR: coreBW[0]},
			{at: 977, vol: 1 << 19, path: []int{2 * 2}, maxR: coreBW[0]},
		})
	})
	t.Run("staggered", func(t *testing.T) {
		runEquivalence(t, []float64{8}, []churnOp{
			{at: 0, vol: 800, path: []int{mc}, maxR: math.Inf(1)},
			{at: 50, vol: 400, path: []int{mc}, maxR: math.Inf(1)},
			{at: 50, vol: 400, path: []int{mc}, maxR: 3},
		})
	})
	t.Run("cap-straddle-components", func(t *testing.T) {
		// Two disjoint components; component B's share (4.0) reaches only
		// the lower of component A's caps, and A must still freeze both in
		// one cap step.
		runEquivalence(t, []float64{30, 12}, []churnOp{
			{at: 0, vol: 1 << 18, path: []int{mc}, maxR: 640.0 / 90},
			{at: 0, vol: 1 << 18, path: []int{mc}, maxR: 640.0 / 160},
			{at: 0, vol: 1 << 16, path: []int{port}, maxR: 4.0},
			{at: 0, vol: 1 << 16, path: []int{port}, maxR: 4.0},
			{at: 0, vol: 1 << 16, path: []int{port}, maxR: 4.0},
			{at: 311, vol: 1 << 15, path: []int{mc}, maxR: math.Inf(1)},
		})
	})
	t.Run("zero-work", func(t *testing.T) {
		runEquivalence(t, []float64{4}, []churnOp{
			{at: 0, vol: 0, path: []int{mc}, maxR: math.Inf(1)},
			{at: 0, vol: 4096, path: []int{mc}, maxR: math.Inf(1)},
			{at: 0, vol: 100, path: nil, maxR: 1},
			{at: 1024, vol: 0, path: nil, maxR: math.Inf(1)},
		})
	})
	t.Run("mixed-caps-one-round", func(t *testing.T) {
		// Interleaved ids of two caps on one port, both below its share
		// (12/5 = 2.4): they freeze in the same cap round, and the port's
		// residual must see their caps in ascending flow id — 12-1.5-0.7-
		// 1.5-0.7 differs by an ulp from any grouped or reversed order, and
		// the uncapped flow's rate is what is left.
		runEquivalence(t, []float64{30, 12}, []churnOp{
			{at: 0, vol: 1 << 16, path: []int{port}, maxR: 1.5},
			{at: 0, vol: 1 << 16, path: []int{mc, port}, maxR: 0.7},
			{at: 0, vol: 1 << 17, path: []int{port}, maxR: 1.5},
			{at: 0, vol: 1 << 17, path: []int{mc, port}, maxR: 0.7},
			{at: 0, vol: 1 << 20, path: []int{port}, maxR: math.Inf(1)},
			{at: 0, vol: 1 << 19, path: []int{mc}, maxR: coreBW[1]},
			{at: 500, vol: 1 << 18, path: []int{mc, port}, maxR: coreBW[2]},
		})
	})
	t.Run("class-emptied-and-recreated", func(t *testing.T) {
		// Op 1 is the only member of its class; op 2 starts with the same
		// path and cap from op 1's done callback, so the class retires and
		// a recycled one takes its place before the instant's flush.
		runEquivalence(t, []float64{10, 6}, []churnOp{
			{at: 0, vol: 1 << 16, path: []int{mc}, maxR: 2.5},
			{at: 0, vol: 1000, path: []int{mc, port}, maxR: 3},
			{vol: 4000, path: []int{mc, port}, maxR: 3, chain: true},
			{vol: 700, path: []int{mc, port}, maxR: 3, chain: true},
			{at: 90, vol: 1 << 12, path: []int{port}, maxR: math.Inf(1)},
		})
	})
	t.Run("resource-listed-twice", func(t *testing.T) {
		// A path naming the mc twice counts twice in its share and
		// subtracts twice from its residual, in both round kinds.
		runEquivalence(t, []float64{30, 12}, []churnOp{
			{at: 0, vol: 1 << 18, path: []int{mc, mc}, maxR: math.Inf(1)},
			{at: 0, vol: 1 << 18, path: []int{mc, port, mc}, maxR: coreBW[0]},
			{at: 0, vol: 1 << 17, path: []int{mc}, maxR: coreBW[2]},
			{at: 0, vol: 1 << 17, path: []int{port, port}, maxR: coreBW[1]},
			{at: 200, vol: 1 << 16, path: []int{mc, mc}, maxR: math.Inf(1)},
			{at: 200, vol: 1 << 16, path: []int{port}, maxR: 1.5},
		})
	})
	t.Run("equal-paths-distinct-slices", func(t *testing.T) {
		// Every op builds its own path slice: equal contents and caps must
		// land in one class however the slices were made, while a reversed
		// path is a class of its own.
		runEquivalence(t, machineCaps, []churnOp{
			{at: 0, vol: 1 << 17, path: []int{2, 3}, maxR: coreBW[1]},
			{at: 0, vol: 1 << 18, path: []int{2, 3}, maxR: coreBW[1]},
			{at: 0, vol: 1 << 16, path: []int{3, 2}, maxR: coreBW[1]},
			{at: 10, vol: 1 << 17, path: []int{2, 3}, maxR: coreBW[1]},
			{at: 10, vol: 1 << 17, path: []int{2}, maxR: coreBW[0]},
			{at: 20, vol: 1 << 15, path: []int{2, 3}, maxR: coreBW[2]},
		})
	})
}

// filledGroups returns, in ascending index, the groups of n that filled
// since the fill step stamp: a filling group freezes each of its classes in
// a step of its own fill, and a clean group's classes keep the steps of an
// earlier one. Groups without a live class cannot show and are left out.
func filledGroups(n *Net, stamp int) []int {
	var filled []int
	for g, grp := range n.groups {
		for _, r := range n.gres[grp.lo:grp.hi] {
			if len(r.classes) > 0 && r.classes[0].frozenIn > stamp {
				filled = append(filled, g)
				break
			}
		}
	}
	return filled
}

// TestReallocateGroupScripted pins the per-group fill (see Net.waterfill)
// and the resource groups it runs over, against the reference ladder run
// per group and against values worked out by hand. Each case names the
// broken fill or grouping it catches.
func TestReallocateGroupScripted(t *testing.T) {
	inf := math.Inf(1)
	// fillAt runs ops on a production net through the instant at and
	// returns the run and the groups that instant's flush filled.
	fillAt := func(caps []float64, ops []churnOp, at Time) (*scriptRun, []int) {
		run := startScript(NewNet, caps, ops)
		run.eng.RunUntil(at - 1)
		stamp := run.net.stamp
		run.eng.RunUntil(at)
		return run, filledGroups(run.net, stamp)
	}
	// rates returns the rates of the given ops' flows.
	rates := func(run *scriptRun, ops ...int) []float64 {
		var got []float64
		for _, i := range ops {
			got = append(got, run.flows[i].rate)
		}
		return got
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	t.Run("near-tie-groups", func(t *testing.T) {
		// Groups {r0} and {r1} have shares 4e-13 apart, inside the 1e-12
		// tolerance; each must freeze at its own share, also once a second
		// flow on each halves both.
		// Catches: one share shared across groups (r0 freezing at r1's).
		c1 := 10 * (1 - 4e-13)
		caps := []float64{10, c1}
		ops := []churnOp{
			{at: 1, vol: 1 << 30, path: []int{0}, maxR: inf},
			{at: 1, vol: 1 << 30, path: []int{1}, maxR: inf},
			{at: 100, vol: 1 << 30, path: []int{1}, maxR: inf},
			{at: 200, vol: 1 << 30, path: []int{0}, maxR: inf},
		}
		if run, _ := fillAt(caps, ops, 1); !same(rates(run, 0, 1), caps) {
			t.Errorf("one flow each: rates %v, want each group's capacity %v", rates(run, 0, 1), caps)
		}
		run, _ := fillAt(caps, ops, 200)
		if got, want := rates(run, 0, 2), []float64{10.0 / 2, c1 / 2}; !same(got, want) {
			t.Errorf("two flows each: rates %v, want %v", got, want)
		}
		runEquivalence(t, caps, ops)
	})
	t.Run("cap-step-not-split", func(t *testing.T) {
		// Group {r0} holds caps 2.3 and 1.1 (in flow-id order) and an
		// uncapped flow, so its share is 4: one cap step freezes both caps,
		// and the uncapped flow gets 12-2.3-1.1. Group {r1}'s share, 2.0,
		// lies between the two caps and must not split that step: split,
		// the uncapped flow would get 12-1.1-2.3, one ulp more.
		// Catches: global cap rounds (a cap step at the smallest share of
		// all groups).
		caps := []float64{12, 2}
		ops := []churnOp{
			{at: 1, vol: 1 << 30, path: []int{0}, maxR: 2.3},
			{at: 1, vol: 1 << 30, path: []int{0}, maxR: 1.1},
			{at: 1, vol: 1 << 30, path: []int{0}, maxR: inf},
			{at: 1, vol: 1000, path: []int{1}, maxR: inf},
			{at: 1000, vol: 1 << 20, path: []int{1}, maxR: inf},
		}
		a, b := 2.3, 1.1
		want := 12 - a - b
		if run, _ := fillAt(caps, ops, 1); !same(rates(run, 0, 1, 2, 3), []float64{a, b, want, 2}) {
			t.Errorf("rates %v, want [2.3 1.1 %v 2]", rates(run, 0, 1, 2, 3), want)
		}
		runEquivalence(t, caps, ops)
	})
	t.Run("linking-class-merges", func(t *testing.T) {
		// A short flow on [r0, r1] joins groups {r0} and {r1} into one,
		// which stays after the flow retires: churn on either resource
		// fills both, and never {r2}.
		// Catches: filling every group (r2 refills), and a linking class
		// that does not join (r0 keeps its own group).
		caps := []float64{30, 12, 20}
		ops := []churnOp{
			{at: 1, vol: 1 << 22, path: []int{0}, maxR: coreBW[0]},
			{at: 1, vol: 1 << 22, path: []int{1}, maxR: inf},
			{at: 1, vol: 1 << 22, path: []int{2}, maxR: coreBW[1]},
			{at: 50, vol: 3000, path: []int{0, 1}, maxR: coreBW[1]},
			{at: 60, vol: 1 << 20, path: []int{1}, maxR: 3},
			{at: 5000, vol: 1 << 20, path: []int{0}, maxR: coreBW[2]},
		}
		for _, at := range []Time{60, 5000} {
			run, filled := fillAt(caps, ops, at)
			g0, g2 := run.rs[0].gid, run.rs[2].gid
			if run.rs[1].gid != g0 || g0 == g2 {
				t.Fatalf("t=%v: groups of r0, r1, r2 are %d, %d, %d; want r0 and r1 joined, r2 apart",
					at, g0, run.rs[1].gid, g2)
			}
			if len(filled) != 1 || filled[0] != g0 {
				t.Errorf("t=%v: groups %v filled, want only the joined group %d", at, filled, g0)
			}
		}
		runEquivalence(t, caps, ops)
	})
	t.Run("only-churned-groups-fill", func(t *testing.T) {
		// Four single-resource groups each carry a flow. A start on r2 must
		// fill r2's group alone; a short flow on r0 that finishes in the
		// instant a flow starts on r3 must fill exactly those two.
		// Catches: filling every group.
		caps := []float64{30, 12, 20, 8}
		ops := []churnOp{
			{at: 1, vol: 1 << 22, path: []int{0}, maxR: coreBW[0]},
			{at: 1, vol: 1 << 22, path: []int{1}, maxR: inf},
			{at: 1, vol: 1 << 22, path: []int{2}, maxR: coreBW[1]},
			{at: 1, vol: 1 << 22, path: []int{3}, maxR: inf},
			{at: 1, vol: 1000, path: []int{0}, maxR: inf},
			{vol: 1 << 20, path: []int{3}, maxR: 2, chain: true},
			{at: 20, vol: 1 << 20, path: []int{2}, maxR: 3},
		}
		probe, _ := fillAt(caps, ops, 1000)
		for _, tc := range []struct {
			at   Time
			want []int
		}{{1, []int{0, 1, 2, 3}}, {20, []int{2}}, {probe.doneAt[4], []int{0, 3}}} {
			if _, got := fillAt(caps, ops, tc.at); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("t=%v: groups %v filled, want %v", tc.at, got, tc.want)
			}
		}
		runEquivalence(t, caps, ops)
	})
	t.Run("linking-class-retires", func(t *testing.T) {
		// A short flow on [r0, r1] joins the groups {r0} and {r1}; after it
		// retires the joined group stays, and churn on r2 leaves it clean.
		// Catches: a new class that links two groups without joining them
		// (the churn of one group would not dirty the other).
		runEquivalence(t, []float64{30, 12, 20}, []churnOp{
			{at: 0, vol: 1 << 22, path: []int{0}, maxR: coreBW[0]},
			{at: 0, vol: 1 << 22, path: []int{1}, maxR: inf},
			{at: 0, vol: 1 << 22, path: []int{2}, maxR: coreBW[1]},
			{at: 50, vol: 3000, path: []int{0, 1}, maxR: coreBW[1]},
			{at: 60, vol: 1 << 20, path: []int{1}, maxR: 3},
			{at: 5000, vol: 1 << 20, path: []int{2}, maxR: inf},
			{at: 6000, vol: 1 << 20, path: []int{0}, maxR: coreBW[2]},
			{at: 7000, vol: 1 << 18, path: []int{1}, maxR: inf},
		})
	})
	t.Run("root-off-live-paths", func(t *testing.T) {
		// r0 roots the union-find tree of {r0, r1} but its only class
		// retires; a class on [r1, r2] then rebuilds the groups, and r0,
		// crossed by no live path, must stay in its group for the flow that
		// later starts on it.
		// Catches: a regroup that lists only resources on live class paths.
		runEquivalence(t, []float64{10, 10, 10}, []churnOp{
			{at: 0, vol: 2000, path: []int{0, 1}, maxR: inf},
			{at: 0, vol: 1 << 22, path: []int{1}, maxR: 4},
			{at: 500, vol: 1 << 20, path: []int{1, 2}, maxR: inf},
			{at: 600, vol: 1 << 20, path: []int{0}, maxR: inf},
			{at: 700, vol: 1 << 19, path: []int{2}, maxR: 3},
		})
	})
	t.Run("reset-drops-groups", func(t *testing.T) {
		// The production net runs until a linking flow has joined {r0} and
		// {r1}, is Reset mid-flight, and then runs flows on r0 and r1
		// alone: they must fill as two groups again.
		// Catches: a Reset that keeps the groups.
		caps := []float64{12, 2}
		warm := []churnOp{
			{at: 0, vol: 1 << 30, path: []int{0, 1}, maxR: inf},
			{at: 0, vol: 1 << 30, path: []int{0}, maxR: 2.3},
		}
		ops := []churnOp{
			{at: 0, vol: 1 << 20, path: []int{0}, maxR: 2.3},
			{at: 0, vol: 1 << 20, path: []int{0}, maxR: inf},
			{at: 0, vol: 1 << 20, path: []int{1}, maxR: inf},
		}
		prod := startScript(NewNet, caps, warm)
		prod.eng.RunUntil(100)
		prod.eng.Reset()
		prod.net.Reset()
		prod = scheduleScript(prod.eng, prod.net, prod.rs, ops)
		prod.eng.RunUntil(0)
		if prod.rs[0].gid == prod.rs[1].gid {
			t.Fatal("r0 and r1 still share a group after Reset")
		}
		prod.eng.Reset()
		prod.net.Reset()
		prod = scheduleScript(prod.eng, prod.net, prod.rs, ops)
		lockstep(t, prod, startScript(newReferenceNet, caps, ops), ops)
	})
}

// TestFlushGroupScripted pins the per-group flush and completion path (see
// Net.flush and Net.onComplete): a flush progresses, fills and re-deadlines
// the churned groups' flows alone, and a completion event progresses the
// one flow it belongs to. Each case names the broken flush or completion
// it catches.
func TestFlushGroupScripted(t *testing.T) {
	inf := math.Inf(1)
	type flowState struct {
		deadline, lastUpdate Time
		remaining            uint64
		rate                 uint64
		starved              bool
	}
	state := func(f *Flow) flowState {
		return flowState{f.deadline, f.lastUpdate, math.Float64bits(f.remaining), math.Float64bits(f.rate), f.starved}
	}
	t.Run("clean-group-untouched", func(t *testing.T) {
		// Op 0 runs alone on r0 while r1 churns: a start at 50, and op 2's
		// completion at 250 and the flush after it. Op 0's deadline, last
		// update and remaining bytes must stay those of its t=0 flush, and
		// it completes at that deadline.
		// Catches: a flush that progresses or re-deadlines every flow, and
		// a completion event that progresses every flow.
		caps := []float64{10, 10}
		ops := []churnOp{
			{at: 0, vol: 1 << 20, path: []int{0}, maxR: inf},
			{at: 0, vol: 1 << 20, path: []int{1}, maxR: inf},
			{at: 50, vol: 1000, path: []int{1}, maxR: inf},
		}
		run := startScript(NewNet, caps, ops)
		run.eng.RunUntil(0)
		want := state(run.flows[0])
		for _, at := range []Time{50, 250} {
			run.eng.RunUntil(at)
			if got := state(run.flows[0]); got != want {
				t.Fatalf("t=%v: r0's flow moved from %+v to %+v by churn on r1", at, want, got)
			}
		}
		if run.doneAt[2] != 250 {
			t.Fatalf("r1's short flow finished at %v, want 250", run.doneAt[2])
		}
		run.eng.Run()
		if run.doneAt[0] != want.deadline {
			t.Fatalf("r0's flow finished at %v, want its t=0 deadline %v", run.doneAt[0], want.deadline)
		}
		runEquivalence(t, caps, ops)
	})
	t.Run("cross-group-tie-by-id", func(t *testing.T) {
		// Op 0 (flow 1, on r1, capped at 5) and op 1 (flow 2, alone on r0)
		// are both due at t=100. Op 2 churns r1 at t=50 without changing
		// op 0's rate, so op 0's deadline is assigned again, later than op
		// 1's, in a group with a higher index. Flow ids decide: op 0
		// completes first, batched and eager alike.
		// Catches: ties broken by group index or by the order deadlines
		// were assigned in.
		caps := []float64{10, 10}
		ops := []churnOp{
			{at: 0, vol: 500, path: []int{1}, maxR: 5},
			{at: 0, vol: 1000, path: []int{0}, maxR: inf},
			{at: 50, vol: 1000, path: []int{1}, maxR: 5},
		}
		for _, mk := range []func(*Engine) *Net{NewNet, newReferenceNet} {
			run := startScript(mk, caps, ops)
			run.eng.Run()
			if run.doneAt[0] != 100 || run.doneAt[1] != 100 {
				t.Fatalf("ops 0 and 1 finished at %v and %v, want both at 100", run.doneAt[0], run.doneAt[1])
			}
			if got := fmt.Sprint(run.order[3:5]); got != fmt.Sprint([]int32{0<<1 | 1, 1<<1 | 1}) {
				t.Fatalf("batch=%v: completion order %v, want op 0 then op 1", run.net.batch, run.order)
			}
		}
		runEquivalence(t, caps, ops)
	})
	t.Run("pushout", func(t *testing.T) {
		// At its cap of 2.3 B/ns, op 0's volume divides to exactly
		// 5427221960 ns in float, but 1.9e-6 bytes are left then: its
		// event pushes it out by 1 ns. Op 1 (cap 1) is due at the same
		// instant in the same group, with a higher id: the pushout must
		// find it again, and it completes on time.
		// Catches: finishing a due flow whatever it has left, and a
		// pushout that does not rescan its group.
		// The numbers assume each float64 product and difference rounds on
		// its own, as on amd64: fusing them into one rounding moves the
		// residue, as it would move the goldens.
		const due = 5427221960
		caps := []float64{12}
		ops := []churnOp{
			{at: 0, vol: 12482610508, path: []int{0}, maxR: 2.3},
			{at: 0, vol: due, path: []int{0}, maxR: 1},
		}
		run := startScript(NewNet, caps, ops)
		run.eng.RunUntil(0)
		if d := run.flows[0].deadline; d != due {
			t.Fatalf("op 0 due at %v, want %v", d, due)
		}
		run.eng.RunUntil(due)
		if f := run.flows[0]; f.finished || f.deadline < due+1 || f.remaining <= 1e-6 {
			t.Fatalf("at its deadline op 0 is finished=%v, due %v, %v bytes left; want pushed out with more than 1e-6 bytes left",
				f.finished, f.deadline, f.remaining)
		}
		if run.doneAt[1] != due {
			t.Fatalf("op 1 finished at %v, want %v", run.doneAt[1], due)
		}
		run.eng.Run()
		if run.doneAt[0] != due+1 {
			t.Fatalf("op 0 finished at %v, want %v", run.doneAt[0], due+1)
		}
		runEquivalence(t, caps, ops)
	})
	t.Run("starved-stays-parked", func(t *testing.T) {
		// Pretend r0's fill gave s nothing (float rounding can starve a
		// flow in big runs but not on demand). Churn on r1 must leave it
		// parked: no rate, no deadline, no progress. A start on r0 fills
		// its group again, and it completes at the work-conserving time.
		// Catches: a flush that fills every group.
		e := NewEngine()
		n := NewNet(e)
		r0, r1 := n.NewResource("r0", 10), n.NewResource("r1", 10)
		s := n.StartFlow(1000, []*Resource{r0}, nil)
		n.StartFlow(500, []*Resource{r1}, nil) // groups r1 before the churn
		n.flush()
		s.rate, s.starved = 0, true
		r0.settle(0, 0)
		grp := &n.groups[r0.gid]
		grp.due = grp.earliest()
		n.arm()
		want := state(s)
		var doneAt Time
		e.At(10, func() { n.StartFlow(500, []*Resource{r1}, nil) })
		e.At(200, func() { n.StartFlow(500, []*Resource{r1}, nil) })
		e.RunUntil(300)
		if got := state(s); got != want || s.finished {
			t.Fatalf("churn on r1 moved the parked flow from %+v to %+v (finished %v)", want, got, s.finished)
		}
		e.At(400, func() { n.StartFlow(500, []*Resource{r0}, func() { doneAt = e.Now() }) })
		end := e.Run()
		if !s.finished || doneAt != 500 || end != 550 {
			t.Fatalf("parked flow finished=%v, r0's starter done at %v, drained at %v; want true, 500, 550",
				s.finished, doneAt, end)
		}
	})
	t.Run("join-keeps-id-order", func(t *testing.T) {
		// Flows start on r3, r0, r2, r1, r3; then a flow on [r1, r3] joins
		// the groups of r1 and r3, and one on [r2, r0] those of r0 and r2.
		// Every group must list its flows in ascending id.
		// Catches: a join that appends the merged groups' lists in group
		// order.
		caps := []float64{10, 10, 10, 10}
		ops := []churnOp{
			{at: 0, vol: 1 << 20, path: []int{3}, maxR: inf},
			{at: 0, vol: 1 << 20, path: []int{0}, maxR: inf},
			{at: 0, vol: 1 << 20, path: []int{2}, maxR: inf},
			{at: 0, vol: 1 << 20, path: []int{1}, maxR: inf},
			{at: 0, vol: 1 << 20, path: []int{3}, maxR: 2},
			{at: 10, vol: 1 << 16, path: []int{1, 3}, maxR: inf},
			{at: 20, vol: 1 << 16, path: []int{2, 0}, maxR: inf},
		}
		run := startScript(NewNet, caps, ops)
		for _, at := range []Time{0, 10, 20} {
			run.eng.RunUntil(at)
			seen := 0
			for g, grp := range run.net.groups {
				for i, f := range grp.flows {
					if f.path[0].gid != g || i > 0 && grp.flows[i-1].id >= f.id {
						t.Fatalf("t=%v: group %d lists flows %v", at, g, flowIDs(grp.flows))
					}
				}
				seen += len(grp.flows)
			}
			if seen != run.net.ActiveFlows() {
				t.Fatalf("t=%v: groups list %d flows, %d in flight", at, seen, run.net.ActiveFlows())
			}
		}
		if got := flowIDs(run.net.groups[run.rs[1].gid].flows); fmt.Sprint(got) != "[1 4 5 6]" {
			t.Fatalf("joined group of r1 and r3 lists %v, want [1 4 5 6]", got)
		}
		runEquivalence(t, caps, ops)
	})
	t.Run("reset-empties-groups", func(t *testing.T) {
		// A net Reset mid-flight keeps its group structs for reuse, and
		// every one of them, live or spare, must come back empty.
		// Catches: a Reset that keeps the group lists.
		caps := []float64{10, 10, 10}
		warm := []churnOp{
			{at: 0, vol: 1 << 20, path: []int{0}, maxR: inf},
			{at: 0, vol: 1 << 20, path: []int{1}, maxR: inf},
			{at: 0, vol: 1 << 20, path: []int{2}, maxR: 3},
			{at: 5, vol: 1 << 20, path: []int{0, 2}, maxR: inf},
		}
		run := startScript(NewNet, caps, warm)
		run.eng.RunUntil(100)
		run.eng.Reset()
		run.net.Reset()
		for g, grp := range run.net.groups[:cap(run.net.groups)] {
			if len(grp.flows) != 0 || grp.due != nil || grp.listed {
				t.Fatalf("group %d after Reset lists %v, due %v, listed %v", g, flowIDs(grp.flows), grp.due, grp.listed)
			}
		}
		if len(run.net.churned) != 0 || run.net.next != nil || run.net.ActiveFlows() != 0 {
			t.Fatalf("Reset left %d churned groups, next %v, %d flows", len(run.net.churned), run.net.next, run.net.ActiveFlows())
		}
		ops := []churnOp{
			{at: 0, vol: 1 << 16, path: []int{1}, maxR: inf},
			{at: 0, vol: 1 << 16, path: []int{2}, maxR: 2},
		}
		run = scheduleScript(run.eng, run.net, run.rs, ops)
		lockstep(t, run, startScript(newReferenceNet, caps, ops), ops)
	})
}

// flowIDs returns the ids of flows, in order.
func flowIDs(flows []*Flow) []int {
	ids := make([]int, len(flows))
	for i, f := range flows {
		ids[i] = f.id
	}
	return ids
}

// TestFlowClassesKeyByContents pins the class bookkeeping: flows join a
// class by path contents and cap, not by slice identity; a class retires
// with its last member and is recycled; Reset drops every class.
func TestFlowClassesKeyByContents(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	a, b := n.NewResource("a", 10), n.NewResource("b", 10)
	f1 := n.StartFlowCapped(100, []*Resource{a, b}, 2, nil)
	f2 := n.StartFlowCapped(200, []*Resource{a, b}, 2, nil)
	f3 := n.StartFlowCapped(100, []*Resource{b, a}, 2, nil)
	f4 := n.StartFlowCapped(100, []*Resource{a, b}, 3, nil)
	if f1.cls != f2.cls {
		t.Fatal("equal paths from distinct slices got distinct classes")
	}
	if f3.cls == f1.cls || f4.cls == f1.cls || f3.cls == f4.cls {
		t.Fatal("a reversed path or a different cap shared a class")
	}
	if len(a.classes)+len(b.classes) != 3 || f1.cls.n != 2 {
		t.Fatalf("got %d classes, first with %d flows; want 3 and 2", len(a.classes)+len(b.classes), f1.cls.n)
	}
	e.Run()
	if len(a.classes) != 0 || len(b.classes) != 0 {
		t.Fatalf("drained net keeps %d live classes", len(a.classes)+len(b.classes))
	}
	if len(n.freeClasses) != 3 {
		t.Fatalf("%d recycled classes, want 3", len(n.freeClasses))
	}
	n.StartFlowCapped(100, []*Resource{a}, 2, nil)
	if len(n.freeClasses) != 2 {
		t.Fatal("a new class did not come from the recycled pool")
	}
	n.Reset()
	e.Reset()
	if len(a.classes) != 0 || len(a.crossing) != 0 || len(n.freeClasses) != 3 {
		t.Fatal("Reset left classes or crossing lists behind")
	}
}

// TestSameInstantTieOrderMatchesEager pins the tie rank of the deferred
// completion event: a user event scheduled *after* a StartFlow in the same
// instant, landing exactly on the flow's completion deadline, must still
// run after the flow's done callback — the order the eager per-churn
// recompute produced, preserved by noteChurn claiming the completion
// event's seq at churn time and the flush only rescheduling it
// (Engine.Reschedule keeps the seq).
func TestSameInstantTieOrderMatchesEager(t *testing.T) {
	run := func(mk func(*Engine) *Net) []string {
		var log []string
		e := NewEngine()
		n := mk(e)
		r := n.NewResource("r", 10)
		e.At(0, func() {
			// 1000 bytes at 10 B/ns: deadline exactly t=100.
			n.StartFlow(1000, []*Resource{r}, func() { log = append(log, "flow-done") })
			e.At(100, func() { log = append(log, "user-event") })
		})
		e.Run()
		return log
	}
	prod := run(NewNet)
	ref := run(newReferenceNet)
	if len(prod) != 2 || len(ref) != 2 {
		t.Fatalf("expected two callbacks each: production %v, reference %v", prod, ref)
	}
	for i := range prod {
		if prod[i] != ref[i] {
			t.Fatalf("same-instant tie order diverged: production %v, reference %v", prod, ref)
		}
	}
	if prod[0] != "flow-done" {
		t.Fatalf("completion lost its tie rank: order %v, want flow-done first", prod)
	}
}

// TestReallocateEquivalenceRandom sweeps the generator across seeds and all
// styles; the fuzz target FuzzReallocate explores the same space
// coverage-guided.
func TestReallocateEquivalenceRandom(t *testing.T) {
	for style := uint64(0); style < 9; style++ {
		for seed := uint64(1); seed <= 6; seed++ {
			caps, ops := buildChurnCase(seed, style, 64+seed*13, seed)
			t.Run(fmt.Sprintf("style%d/seed%d", style, seed), func(t *testing.T) {
				runEquivalence(t, caps, ops)
			})
		}
	}
}
