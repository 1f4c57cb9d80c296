// Package policy implements the four scheduling configurations of the
// paper's evaluation — DFIFO, LAS (the baseline), EP and the RGP family —
// plus ablation variants. Each policy is a small, pure decision function
// over the runtime's state; the runtime owns queues, stealing and
// execution.
package policy

import (
	"encoding/binary"
	"fmt"
	"math"

	"numadag/internal/freelist"
	"numadag/internal/graph"
	"numadag/internal/partition"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// DFIFO is the distributed-FIFO configuration: every ready task goes to the
// next CPU in cyclic order, with no awareness of where data lives. The
// runtime realizes the cyclic order through per-core queues.
type DFIFO struct{}

// Name implements rt.Policy.
func (DFIFO) Name() string { return "DFIFO" }

// PickSocket implements rt.Policy.
func (DFIFO) PickSocket(*rt.Runtime, *rt.Task) int { return rt.AnySocket }

// LAS is the locality-aware scheduler of Drebes et al. that the paper uses
// as its baseline: at scheduling time the task's dependences are weighted by
// the bytes already allocated per socket, and the task is pushed to the
// heaviest socket ("enhanced work-pushing"). If no byte of its data is
// allocated yet, the socket is uniformly random; ties break randomly among
// the tied sockets. Allocation itself is deferred: output regions get homed
// wherever the producing task ends up running (the runtime implements that
// in its write phase).
type LAS struct{}

// Name implements rt.Policy.
func (LAS) Name() string { return "LAS" }

// PickSocket implements rt.Policy.
func (LAS) PickSocket(r *rt.Runtime, t *rt.Task) int {
	return lasPick(r, t)
}

// lasPick is LAS's socket choice, shared with the RGP propagation phase.
// It reads residency through the runtime's scratch slice — one query per
// scheduling decision, never retained.
func lasPick(r *rt.Runtime, t *rt.Task) int {
	res := r.ResidencyBytesScratch(t)
	var best int64
	for _, b := range res {
		if b > best {
			best = b
		}
	}
	if best == 0 {
		// Nothing allocated: uniformly random among all sockets.
		return r.Rand().Intn(len(res))
	}
	// Random tie-break among maximal sockets, with a single pass
	// reservoir draw for determinism.
	winner, seen := -1, 0
	for s, b := range res {
		if b == best {
			seen++
			if r.Rand().Intn(seen) == 0 {
				winner = s
			}
		}
	}
	return winner
}

// EP is the expert-programmer configuration: the schedule is hardcoded in
// the benchmark source. Apps annotate each task with its expert placement;
// tasks without a hint (not part of the expert's distribution) fall back to
// LAS so the configuration stays runnable on any app.
type EP struct{}

// Name implements rt.Policy.
func (EP) Name() string { return "EP" }

// PickSocket implements rt.Policy.
func (EP) PickSocket(r *rt.Runtime, t *rt.Task) int {
	if t.EPSocket != rt.NoEPHint {
		return t.EPSocket
	}
	return lasPick(r, t)
}

// VetoSteal implements rt.StealVeto: the expert's schedule is hardcoded in
// the benchmark source, so the runtime must not second-guess it by moving
// tasks across sockets.
func (EP) VetoSteal() bool { return true }

// Propagation selects how RGP extends the initial window's partition to the
// rest of the TDG.
type Propagation int

const (
	// PropagateLAS uses locality-aware scheduling beyond the first window —
	// the paper's RGP+LAS configuration.
	PropagateLAS Propagation = iota
	// PropagateRepartition partitions every window, anchoring each window's
	// boundary tasks to the previous assignments (pure RGP ablation).
	PropagateRepartition
)

// String implements fmt.Stringer.
func (p Propagation) String() string {
	switch p {
	case PropagateLAS:
		return "las"
	case PropagateRepartition:
		return "repartition"
	default:
		return fmt.Sprintf("propagation(%d)", int(p))
	}
}

// RGP is the runtime-graph-partitioning family (§2.2): the first window of
// the TDG is partitioned with the multilevel partitioner mapped onto the
// machine's NUMA architecture; tasks of that window run on their assigned
// socket. While the partition is being computed (a simulated cost charged
// per window task), ready window tasks wait in the runtime's temporary
// queue. The rest of the graph follows the chosen Propagation.
//
// The window plan — each partitioned task's socket — does not depend on the
// runtime seed: the partitioner runs with partition.DefaultOptions' fixed
// seed, as the paper's runtime gets one SCOTCH mapping per window, and the
// seed stands only for run-to-run scheduling noise (LAS's tie-breaks and
// data-less tasks). Runs that install one snapshot therefore share one plan
// (rt.Runtime.Shared), and a repartitioning run never reaches its seed.
type RGP struct {
	// Propagate selects the propagation mode (default PropagateLAS).
	Propagate Propagation
	// Tune, if set, adjusts the partitioner options once per Prepare, after
	// the defaults (partition.DefaultOptions for the machine's socket count,
	// with its fixed seed) have been resolved — the ablation hook the
	// registry's "matching" and "refine" spec parameters use. It must be a
	// pure function of the options: the options it leaves are part of the
	// plan's key, so runs that resolve equal options share one plan.
	Tune func(*partition.Options)

	plan  *rgpPlan
	ready bool // simulated partition completed
}

// rgpPlan is RGP's window plan, shared read-only by every run of a snapshot
// that resolves the same key (planKey).
type rgpPlan struct {
	// assign[id] is the socket the window partitioning chose for task id,
	// or -1 for tasks left to the propagation policy (dense by NodeID — the
	// per-task PickSocket lookup and the anchor membership tests both hit
	// it).
	assign  []int32
	windows int // windows partitioned
}

// noPlan is the plan of a graph with no task.
var noPlan rgpPlan

// prepScratch is the pooled prepare-state of RGP.Prepare: the plan key,
// the induced-subgraph scratch, the pooled symmetrized graph, and the dense
// per-window buffers that replace the old per-window maps and slices. One
// scratch serves all windows of a Prepare and is recycled across runs.
type prepScratch struct {
	key   []byte
	sub   graph.SubgraphScratch
	pg    partition.Graph
	seenW []int32        // seenW[v] == w: v already anchored for window w
	all   []graph.NodeID // anchors ++ window ids, reused per window
	fixed []int32        // pinned-vertex array handed to MapOnto
}

// prepPool keeps warmed scratch across garbage collections and holds at
// most as many as were ever in use at once.
var prepPool freelist.List[prepScratch]

// Name implements rt.Policy.
func (p *RGP) Name() string {
	if p.Propagate == PropagateLAS {
		return "RGP+LAS"
	}
	return "RGP(repartition)"
}

// Prepare implements rt.Preparer: it obtains the window plan, computed once
// per snapshot and key (rt.Runtime.Shared; a runtime that built its own
// graph computes it), and charges this run the simulated partitioning
// latency of the first window. Ready tasks of the first window defer to the
// temporary queue until that latency elapses.
func (p *RGP) Prepare(r *rt.Runtime) {
	if r.Windows() == 0 {
		p.plan, p.ready = &noPlan, true
		return
	}
	opt := partition.DefaultOptions(r.Machine().Sockets())
	if p.Tune != nil {
		// The pointer escapes into Tune, so only a tuned policy pays for
		// a heap copy of the options.
		tuned := opt
		p.Tune(&tuned)
		opt = tuned
	}
	sc := prepPool.Get()
	if sc == nil {
		sc = &prepScratch{}
	}
	defer prepPool.Put(sc)
	sc.key = p.planKey(sc.key[:0], r, &opt)
	p.plan = r.Shared(sc.key, func() any { return p.partition(r, opt, sc) }).(*rgpPlan)
	// Charge the simulated SCOTCH latency for the first window; deferred
	// tasks are released when it elapses.
	cost := r.Options().PartitionCostPerTask * sim.Time(len(r.WindowTasks(0)))
	r.At(cost, func() {
		p.ready = true
		r.ReleaseDeferred()
	})
}

// planKey appends to key every input of the plan besides the task graph:
// the propagation mode (how many windows are partitioned), the window size
// (which tasks each window holds), the resolved partition options but their
// Fixed pins (partition sets those from earlier windows), and the machine's
// socket count and hop matrix (the mapping's architecture).
func (p *RGP) planKey(key []byte, r *rt.Runtime, opt *partition.Options) []byte {
	// Every field is one uvarint (a negative int as its two's complement),
	// and each list is preceded by its length, so equal keys mean equal
	// inputs.
	put := func(v uint64) { key = binary.AppendUvarint(key, v) }
	flag := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	key = append(key, "policy.RGP\x00"...)
	put(uint64(p.Propagate))
	put(uint64(r.Options().WindowSize))
	put(uint64(opt.Parts))
	put(uint64(len(opt.TargetWeights)))
	for _, w := range opt.TargetWeights {
		put(math.Float64bits(w))
	}
	put(math.Float64bits(opt.Imbalance))
	put(opt.Seed)
	put(uint64(opt.CoarsenTo))
	put(uint64(opt.Tries))
	put(uint64(opt.FMPasses))
	put(uint64(opt.Matching))
	put(uint64(opt.Initial))
	flag(opt.NoRefine)
	flag(opt.KWayRefine)
	n := r.Machine().Sockets()
	put(uint64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			put(uint64(r.Machine().Hops(i, j)))
		}
	}
	return key
}

// partition computes the plan: it partitions the first window, or every
// window under PropagateRepartition, onto the machine's sockets.
func (p *RGP) partition(r *rt.Runtime, opt partition.Options, sc *prepScratch) *rgpPlan {
	n := r.Graph().Len()
	plan := &rgpPlan{assign: make([]int32, n)}
	assign := plan.assign
	for i := range assign {
		assign[i] = -1
	}
	arch := &partition.Arch{Dist: distanceMatrix(r)}
	limit := 1
	if p.Propagate == PropagateRepartition {
		limit = r.Windows()
	}
	if cap(sc.seenW) < n {
		sc.seenW = make([]int32, n)
	}
	seenW := sc.seenW[:n]
	for i := range seenW {
		seenW[i] = -1
	}
	for w := 0; w < limit; w++ {
		tasks := r.WindowTasks(w)
		if len(tasks) == 0 {
			continue
		}
		// Anchor: include predecessor tasks from earlier windows as fixed
		// vertices so the new window's partition aligns with decided work.
		// assign doubles as the earlier-window membership test: entries are
		// only written after a window's MapOnto, so within window w it holds
		// exactly the windows before it.
		all := sc.all[:0]
		if w > 0 {
			for _, t := range tasks {
				r.Graph().Preds(t.ID, func(from graph.NodeID, _ int64) {
					if assign[from] >= 0 && seenW[from] != int32(w) {
						seenW[from] = int32(w)
						all = append(all, from)
					}
				})
			}
		}
		nAnchors := len(all)
		for _, t := range tasks {
			all = append(all, t.ID)
		}
		sc.all = all
		sub, back := r.Graph().InducedSubgraphInto(&sc.sub, all)
		sc.pg.LoadDAG(sub)
		// With no anchors there is nothing to pin: nil Fixed takes the
		// partitioner's unconstrained path, which is bit-identical to an
		// all--1 array (every consumer tests fixed[v] >= 0). That keeps the
		// single-window configurations free of the per-window Fixed fill.
		opt.Fixed = nil
		if nAnchors > 0 {
			if cap(sc.fixed) < sub.Len() {
				sc.fixed = make([]int32, sub.Len())
			}
			opt.Fixed = sc.fixed[:sub.Len()]
			for i := range opt.Fixed {
				opt.Fixed[i] = -1
			}
			for i := 0; i < nAnchors; i++ {
				opt.Fixed[i] = assign[back[i]]
			}
		}
		part, _, err := partition.MapOnto(&sc.pg, arch, opt)
		if err != nil {
			// Unreachable from input: the arch comes from a machine.Config
			// that machine.New validated (at least one socket; a square,
			// symmetric hop matrix with a zero diagonal and no negative
			// entry), the options are DefaultOptions for its socket count
			// plus the registry's Tune (matching and refine only), and
			// every pin is a part an earlier window's MapOnto returned. A
			// custom Tune that breaks the options is API misuse by a Go
			// caller, so this stays a panic; inside rt.Runtime.Shared it
			// panics in every run that asks for this plan and never hands
			// one a nil plan.
			panic(fmt.Sprintf("policy: window %d partition failed: %v", w, err))
		}
		for i, id := range back {
			if i < nAnchors {
				continue
			}
			assign[id] = part[i]
		}
		plan.windows++
	}
	return plan
}

// PickSocket implements rt.Policy.
func (p *RGP) PickSocket(r *rt.Runtime, t *rt.Task) int {
	if s := p.plan.assign[t.ID]; s >= 0 {
		if !p.ready {
			return rt.DeferPlacement
		}
		return int(s)
	}
	return lasPick(r, t)
}

// WindowsPartitioned reports how many windows the plan Prepare obtained
// partitioned.
func (p *RGP) WindowsPartitioned() int {
	if p.plan == nil {
		return 0
	}
	return p.plan.windows
}

// distanceMatrix extracts the machine's socket distance matrix.
func distanceMatrix(r *rt.Runtime) [][]int {
	n := r.Machine().Sockets()
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			d[i][j] = r.Machine().Hops(i, j)
		}
	}
	return d
}
