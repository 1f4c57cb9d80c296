package partition

import (
	"fmt"
	"math"

	"numadag/internal/xrand"
)

// Arch describes the target architecture for static mapping: a set of
// sockets with a symmetric hop-distance matrix (and optionally non-uniform
// compute capacity per socket).
type Arch struct {
	// Dist[i][j] is the interconnect distance between sockets i and j.
	Dist [][]int
	// Capacity optionally weights sockets (nil = uniform). Mapping gives a
	// socket a share of vertex weight proportional to its capacity.
	Capacity []float64
}

// Sockets returns the socket count.
func (a *Arch) Sockets() int { return len(a.Dist) }

func (a *Arch) validate() error {
	n := len(a.Dist)
	if n == 0 {
		return fmt.Errorf("partition: empty architecture")
	}
	for i, row := range a.Dist {
		if len(row) != n {
			return fmt.Errorf("partition: arch row %d has %d entries", i, len(row))
		}
		if row[i] != 0 {
			return fmt.Errorf("partition: arch self-distance non-zero")
		}
		for j, d := range row {
			if d < 0 || a.Dist[j][i] != d {
				return fmt.Errorf("partition: arch distance (%d,%d) invalid", i, j)
			}
		}
	}
	if a.Capacity != nil {
		if len(a.Capacity) != n {
			return fmt.Errorf("partition: %d capacities for %d sockets", len(a.Capacity), n)
		}
		sum := 0.0
		for i, c := range a.Capacity {
			if !(c >= 0) || math.IsInf(c, 1) {
				return fmt.Errorf("partition: socket %d capacity %v is not a finite non-negative number", i, c)
			}
			sum += c
		}
		if !(sum > 0) || math.IsInf(sum, 1) {
			return fmt.Errorf("partition: socket capacities sum to %v", sum)
		}
	}
	return nil
}

// MapOnto computes a static mapping of g's vertices onto the architecture's
// sockets by dual recursive bipartitioning: the socket set is recursively
// split into the two most distant groups, and the (sub)graph is bisected
// alongside with target weights proportional to group capacity. The effect
// is that the graph's weakest cuts are assigned to the architecture's most
// expensive (most distant) boundaries — SCOTCH's static mapping strategy.
//
// opt.Parts and opt.TargetWeights are ignored (derived from arch); other
// options apply to each bisection.
func MapOnto(g *Graph, arch *Arch, opt Options) ([]int32, Stats, error) {
	rf := getRefiner()
	defer refinerPool.Put(rf)
	return mapOnto(g, arch, opt, rf)
}

// mapOnto is MapOnto on a caller-supplied refiner.
func mapOnto(g *Graph, arch *Arch, opt Options, rf *refiner) ([]int32, Stats, error) {
	if err := arch.validate(); err != nil {
		return nil, Stats{}, err
	}
	opt.Parts = arch.Sockets()
	opt.TargetWeights = nil
	if err := opt.validate(g.Len()); err != nil {
		return nil, Stats{}, err
	}
	rng := xrand.New(opt.Seed)
	part := make([]int32, g.Len())
	sockets := make([]int, arch.Sockets())
	for i := range sockets {
		sockets[i] = i
	}
	drb(g, rf.allVertices(g.Len()), opt.Fixed, part, sockets, arch, &opt, rng, rf)
	if opt.KWayRefine && !opt.NoRefine {
		refineKWayMapped(g, part, opt.Fixed, arch, opt.Imbalance, opt.FMPasses, rf)
	}
	st := Stats{
		EdgeCut:   EdgeCut(g, part),
		Imbalance: Imbalance(g, part, arch.Sockets(), archTargets(arch)),
	}
	return part, st, nil
}

// archTargets converts capacities to normalized target weights.
func archTargets(arch *Arch) []float64 {
	n := arch.Sockets()
	t := make([]float64, n)
	if arch.Capacity == nil {
		for i := range t {
			t[i] = 1.0 / float64(n)
		}
		return t
	}
	sum := 0.0
	for _, c := range arch.Capacity {
		sum += c
	}
	for i, c := range arch.Capacity {
		t[i] = c / sum
	}
	return t
}

// drb recursively maps the vertex subset onto the socket subset. rf carries
// the refinement scratch shared by the entire recursion.
func drb(g *Graph, vertices []int, fixed []int32, part []int32, sockets []int, arch *Arch, opt *Options, rng *xrand.Rand, rf *refiner) {
	if len(sockets) == 1 {
		for _, v := range vertices {
			part[v] = int32(sockets[0])
		}
		return
	}
	s0, s1 := splitSockets(sockets, arch)
	cap0, cap1 := groupCapacity(s0, arch), groupCapacity(s1, arch)
	frac := cap0 / (cap0 + cap1)
	sub := subgraph(g, vertices, rf)
	var subFixed []int32
	if fixed != nil {
		// side[s] is socket s's side of this split; -1 marks a socket
		// outside this branch, whose pinned vertices stay free here.
		rf.sockSide = grow(rf.sockSide, arch.Sockets())
		side := rf.sockSide
		for s := range side {
			side[s] = -1
		}
		for _, s := range s0 {
			side[s] = 0
		}
		for _, s := range s1 {
			side[s] = 1
		}
		rf.subFixed = grow(rf.subFixed, sub.Len())
		subFixed = rf.subFixed
		for i, v := range vertices {
			if f := fixed[v]; f < 0 {
				subFixed[i] = -1
			} else {
				subFixed[i] = side[f]
			}
		}
	}
	bis, _ := multilevelBisect(sub, subFixed, frac, opt, rng, rf)
	left, right := rf.split(vertices, bis)
	drb(g, left, fixed, part, s0, arch, opt, rng.Fork(), rf)
	drb(g, right, fixed, part, s1, arch, opt, rng.Fork(), rf)
}

// splitSockets divides a socket group into two halves so that the distance
// *between* halves is maximized (greedy 2-center growth): the recursion then
// cuts across the widest interconnect boundary first. Deterministic.
func splitSockets(sockets []int, arch *Arch) (s0, s1 []int) {
	if len(sockets) == 2 {
		return sockets[:1], sockets[1:]
	}
	// Pick the farthest pair as seeds (first such pair in index order).
	bestD := -1
	var seedA, seedB int
	for i := 0; i < len(sockets); i++ {
		for j := i + 1; j < len(sockets); j++ {
			if d := arch.Dist[sockets[i]][sockets[j]]; d > bestD {
				bestD = d
				seedA, seedB = sockets[i], sockets[j]
			}
		}
	}
	half := (len(sockets) + 1) / 2
	s0 = append(s0, seedA)
	s1 = append(s1, seedB)
	// Assign remaining sockets to the nearer seed group, balancing sizes.
	for _, s := range sockets {
		if s == seedA || s == seedB {
			continue
		}
		d0 := groupDist(s, s0, arch)
		d1 := groupDist(s, s1, arch)
		switch {
		case len(s0) >= half:
			s1 = append(s1, s)
		case len(s1) >= len(sockets)-half:
			s0 = append(s0, s)
		case d0 <= d1:
			s0 = append(s0, s)
		default:
			s1 = append(s1, s)
		}
	}
	return s0, s1
}

// groupDist is the average distance from s to the group's members.
func groupDist(s int, group []int, arch *Arch) float64 {
	if len(group) == 0 {
		return math.Inf(1)
	}
	sum := 0
	for _, t := range group {
		sum += arch.Dist[s][t]
	}
	return float64(sum) / float64(len(group))
}

// groupCapacity sums the (default 1.0) capacities of a socket group.
func groupCapacity(group []int, arch *Arch) float64 {
	if arch.Capacity == nil {
		return float64(len(group))
	}
	sum := 0.0
	for _, s := range group {
		sum += arch.Capacity[s]
	}
	return sum
}
