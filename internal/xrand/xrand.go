// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic decision in the simulator.
//
// All randomness in numadag flows through a seeded *Rand so that a given
// (seed, configuration) pair reproduces the exact same partitions, schedules
// and makespans. The generator is splitmix64 (Steele et al.), which is
// statistically solid for the simulator's needs and has a one-word state
// that is trivial to fork deterministically.
package xrand

import "math/bits"

// Rand is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; fork one per goroutine with Fork if needed. The simulator
// itself is single-threaded per run, so a single Rand per run suffices.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators created with the
// same seed produce identical streams.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits (splitmix64 step).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// PermInto overwrites p with a pseudo-random permutation of [0, len(p)) and
// returns it: a Fisher–Yates shuffle of the identity, drawing Intn(i+1)
// for i from len(p)-1 down to 1, whatever p held before. A caller reuses
// one buffer for every permutation.
func (r *Rand) PermInto(p []int) []int {
	for i := range p {
		p[i] = i
	}
	// Fisher–Yates.
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent generator from the current state. The derived
// stream is decorrelated from the parent by an extra mixing step, and the
// parent advances by one step, so repeated Fork calls yield distinct children.
func (r *Rand) Fork() *Rand {
	return &Rand{state: r.Uint64() ^ 0xd1b54a32d192ed03}
}

// Reseed resets the generator to the stream New(seed) would produce,
// letting pooled owners reuse one Rand across runs.
func (r *Rand) Reseed(seed uint64) { r.state = seed }
