package cluster

import (
	"fmt"

	"numadag/internal/spec"
	"numadag/internal/xrand"
)

// Dispatcher places arriving jobs on machines. Implementations must be
// deterministic given their seeded rng and the Update call sequence: the
// cluster calls Pick exactly once per arriving job, in arrival order, and
// Update(m, +1) right after each placement / Update(m, -1) when a job
// leaves machine m (both queued and running jobs count as load).
type Dispatcher interface {
	// Name returns the canonical spec string ("kchoices?d=2", "idle").
	Name() string
	// Init sizes the dispatcher for n machines and hands it its random
	// stream. Called once before the first Pick.
	Init(n int, rng *xrand.Rand)
	// Pick returns the machine index for the next arriving job.
	Pick() int
	// Update adjusts machine m's load by delta (+1 on placement, -1 on
	// job completion).
	Update(m, delta int)
}

// MaxChoices caps kchoices' d. KChoices sizes its sample scratch by d and
// draws d random machines for every arriving job, so an unchecked d could
// ask for an impossible allocation or make every placement arbitrarily
// slow. Least-loaded placement over the whole fleet is "idle".
const MaxChoices = 1024

// NewDispatcher parses a dispatcher spec (the grammar of package spec).
// Supported:
//
//	"kchoices"       power-of-d-choices with d=2
//	"kchoices?d=K"   sample K machines uniformly, pick least loaded (1 <= K <= MaxChoices)
//	"idle"           least-loaded machine overall via an indexed min-heap
func NewDispatcher(str string) (Dispatcher, error) {
	s, err := spec.Parse("cluster", str)
	if err != nil {
		return nil, err
	}
	switch s.Name {
	case "kchoices":
		if err := s.Only("d"); err != nil {
			return nil, err
		}
		d, err := s.Int("d", 2)
		if err != nil {
			return nil, err
		}
		if d < 1 || d > MaxChoices {
			return nil, fmt.Errorf("cluster: kchoices: d=%d is out of range [1, %d]", d, MaxChoices)
		}
		return &KChoices{D: d}, nil
	case "idle":
		if err := s.Only(); err != nil {
			return nil, err
		}
		return &IdleHeap{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown dispatcher %q (kchoices, idle)", s.Name)
	}
}

// CandidateSampler is implemented by dispatchers that consider a sampled
// subset of machines per decision. LastCandidates returns the machines the
// most recent Pick examined, in sampling order; the slice is reused by the
// next Pick, so observers must copy what they keep. Deterministic
// dispatchers that scan global state (IdleHeap) do not implement it.
type CandidateSampler interface {
	LastCandidates() []int
}

// KChoices is the power-of-d-choices dispatcher: sample D machines
// uniformly at random (with replacement) and place the job on the least
// loaded of the sample, breaking ties toward the lowest machine index. The
// classic result: d=2 already collapses queue-length tails compared with
// uniform random placement, at O(d) cost per decision.
type KChoices struct {
	D    int
	rng  *xrand.Rand
	load []int
	cand []int // last Pick's samples, reused scratch (CandidateSampler)
}

func (k *KChoices) Name() string {
	return fmt.Sprintf("kchoices?d=%d", k.D)
}

func (k *KChoices) Init(n int, rng *xrand.Rand) {
	k.rng = rng
	k.load = make([]int, n)
	k.cand = make([]int, 0, k.D)
}

func (k *KChoices) Pick() int {
	k.cand = k.cand[:0]
	best := k.rng.Intn(len(k.load))
	k.cand = append(k.cand, best)
	for i := 1; i < k.D; i++ {
		c := k.rng.Intn(len(k.load))
		k.cand = append(k.cand, c)
		if k.load[c] < k.load[best] || (k.load[c] == k.load[best] && c < best) {
			best = c
		}
	}
	return best
}

// LastCandidates implements CandidateSampler: the machines the last Pick
// sampled, in order (reused scratch — copy to keep).
func (k *KChoices) LastCandidates() []int { return k.cand }

func (k *KChoices) Update(m, delta int) {
	k.load[m] += delta
	if k.load[m] < 0 {
		panic("cluster: kchoices load went negative")
	}
}

// IdleHeap is the global least-loaded dispatcher: an indexed min-heap over
// (load, machine index) gives O(log n) placement onto the machine with the
// fewest jobs, preferring truly idle machines and breaking load ties toward
// the lowest index — fully deterministic, no randomness consumed.
type IdleHeap struct {
	load []int // load per machine
	heap []int // machine indices, heap-ordered by (load, index)
	pos  []int // machine index -> position in heap
}

func (h *IdleHeap) Name() string { return "idle" }

func (h *IdleHeap) Init(n int, rng *xrand.Rand) {
	_ = rng // deterministic policy; keeps the stream untouched
	h.load = make([]int, n)
	h.heap = make([]int, n)
	h.pos = make([]int, n)
	for i := 0; i < n; i++ {
		h.heap[i] = i
		h.pos[i] = i
	}
}

func (h *IdleHeap) less(a, b int) bool {
	ma, mb := h.heap[a], h.heap[b]
	if h.load[ma] != h.load[mb] {
		return h.load[ma] < h.load[mb]
	}
	return ma < mb
}

func (h *IdleHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = a
	h.pos[h.heap[b]] = b
}

func (h *IdleHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IdleHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h.less(l, least) {
			least = l
		}
		if r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h.swap(i, least)
		i = least
	}
}

func (h *IdleHeap) Pick() int { return h.heap[0] }

func (h *IdleHeap) Update(m, delta int) {
	h.load[m] += delta
	if h.load[m] < 0 {
		panic("cluster: idle-heap load went negative")
	}
	i := h.pos[m]
	if delta > 0 {
		h.down(i)
	} else {
		h.up(i)
	}
}
