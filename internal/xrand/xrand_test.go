package xrand

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformityCoarse(t *testing.T) {
	r := New(99)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: count %d, want within 10%% of %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.PermInto(make([]int, n))
		if len(p) != n {
			t.Fatalf("PermInto of %d has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("PermInto of %d = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// TestPermIntoMatchesPerm pins PermInto to the draws of the Fisher–Yates
// loop the allocating Perm it replaced always used: the same permutation
// for every seed and length, whatever the buffer held before, and the same
// generator state afterwards.
func TestPermIntoMatchesPerm(t *testing.T) {
	reference := func(r *Rand, n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			p[i], p[j] = p[j], p[i]
		}
		return p
	}
	buf := make([]int, 100)
	for _, seed := range []uint64{1, 7, 42, 1 << 40} {
		for _, n := range []int{0, 1, 2, 3, 17, 64, 100} {
			want, viaInto := New(seed), New(seed)
			ref := reference(want, n)
			for i := range buf {
				buf[i] = -7 // stale contents must not leak into the result
			}
			into := viaInto.PermInto(buf[:n])
			for i := 0; i < n; i++ {
				if into[i] != ref[i] {
					t.Fatalf("seed %d n %d: position %d: reference %d, PermInto %d",
						seed, n, i, ref[i], into[i])
				}
			}
			next := want.Uint64()
			if viaInto.Uint64() != next {
				t.Fatalf("seed %d n %d: generator state diverged after the permutation", seed, n)
			}
		}
	}
}

func TestForkDecorrelated(t *testing.T) {
	parent := New(1234)
	child := parent.Fork()
	// The child stream must differ from the parent's continued stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("fork produced %d collisions with parent stream", same)
	}
}

func TestForkDeterministic(t *testing.T) {
	a, b := New(77).Fork(), New(77).Fork()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("forks of identical parents diverged")
		}
	}
}

// streamDigest folds a fixed-seed mix of every drawing method into one
// FNV-1a hash: Intn over small, mid and near-2^63 bounds (the high word of
// the 128-bit product is the result, so wide bounds pin all of it), PermInto
// over several lengths into one reused buffer, Float64 bits, and the first
// draws of forked children.
func streamDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	r := New(20180224)
	bounds := []int{1, 2, 3, 7, 10, 64, 1000, 1 << 20, 1<<31 - 1, 1 << 32, 1<<32 + 1,
		1<<40 + 12345, 1<<62 + 1, math.MaxInt64/3 + 7, math.MaxInt64}
	perm := make([]int, 100)
	for round := 0; round < 64; round++ {
		for _, n := range bounds {
			put(uint64(r.Intn(n)))
		}
		for _, n := range []int{0, 1, 2, 5, 17, 64, 100} {
			for _, v := range r.PermInto(perm[:n]) {
				put(uint64(v))
			}
		}
		put(math.Float64bits(r.Float64()))
		c := r.Fork()
		put(c.Uint64())
		put(uint64(c.Intn(1 << 48)))
	}
	return h.Sum64()
}

// TestStreamGolden pins the generator's output stream: every simulated
// partition, schedule and arrival draws through these methods, so a change
// to how they compute must leave the digest alone.
func TestStreamGolden(t *testing.T) {
	const want = 0xbf7ba5ca320d1631
	if got := streamDigest(); got != want {
		t.Fatalf("stream digest %#x, want %#x", got, uint64(want))
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkPermInto measures one 64-element permutation into a reused
// buffer, the draw graph generators and the partitioner's random matching
// make per call.
func BenchmarkPermInto(b *testing.B) {
	r := New(1)
	p := make([]int, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PermInto(p)
	}
}
