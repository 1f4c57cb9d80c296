package metrics

import (
	"fmt"
	"math"
)

// Histogram is a streaming log-bucketed histogram with a bounded relative
// error on quantile estimates — the service-mode counterpart of the exact
// Figure-1 tables, sized for millions of response-time samples at O(log
// range) memory.
//
// Values are assigned to geometric buckets: bucket i covers (gamma^(i-1),
// gamma^i], with gamma = (1+eps)/(1-eps) chosen so that reporting the
// bucket's geometric midpoint guarantees |estimate - true| <= eps * true
// for every recorded value (the DDSketch bound). Counts are integers and
// bucket indices are a pure function of the value, so two histograms fed
// the same multiset of values in any order hold identical counts, min, max
// and buckets: quantiles are deterministic, which is what lets
// cluster-mode goldens pin p99s bit-exactly. (Sum is a float accumulation
// and may differ in its last bits between orders.)
//
// Non-positive values land in a dedicated zero bucket (response times and
// slowdowns are non-negative; exact zeros come from zero-length jobs).
// The zero value of Histogram is not usable; create one with NewHistogram.
type Histogram struct {
	gamma    float64
	logGamma float64

	// counts[i] holds bucket base+i. The slice grows at either end as
	// values arrive; base tracks the lowest represented bucket index.
	counts []uint64
	base   int

	zero  uint64 // values <= 0
	count uint64
	sum   float64
	min   float64
	max   float64
}

// NewHistogram returns a histogram whose quantile estimates carry at most
// the given relative error (e.g. 0.01 for 1%). eps must be in (0, 1).
func NewHistogram(eps float64) *Histogram {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("metrics: histogram relative error %v out of (0, 1)", eps))
	}
	gamma := (1 + eps) / (1 - eps)
	return &Histogram{
		gamma:    gamma,
		logGamma: math.Log(gamma),
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}
}

// bucketIndex maps a positive value to its bucket: the smallest i with
// value <= gamma^i.
func (h *Histogram) bucketIndex(v float64) int {
	return int(math.Ceil(math.Log(v) / h.logGamma))
}

// bucketValue returns the representative (geometric midpoint) of bucket i:
// 2*gamma^i/(gamma+1), the point whose relative distance to both bucket
// edges is exactly eps.
func (h *Histogram) bucketValue(i int) float64 {
	return 2 * math.Pow(h.gamma, float64(i)) / (h.gamma + 1)
}

// Add records one value. NaN panics — a NaN response time is an upstream
// bug the histogram must not silently absorb.
func (h *Histogram) Add(v float64) { h.AddN(v, 1) }

// AddN records a value n times.
func (h *Histogram) AddN(v float64, n uint64) {
	if math.IsNaN(v) {
		panic("metrics: histogram Add(NaN)")
	}
	if n == 0 {
		return
	}
	h.count += n
	h.sum += v * float64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if v <= 0 {
		h.zero += n
		return
	}
	h.bump(h.bucketIndex(v), n)
}

// bump adds n to bucket idx, growing the dense window as needed.
func (h *Histogram) bump(idx int, n uint64) {
	if len(h.counts) == 0 {
		h.counts = append(h.counts, 0)
		h.base = idx
	}
	if idx < h.base {
		grown := make([]uint64, len(h.counts)+(h.base-idx))
		copy(grown[h.base-idx:], h.counts)
		h.counts = grown
		h.base = idx
	}
	for idx >= h.base+len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[idx-h.base] += n
}

// Count returns the number of recorded values. Count, Sum and Min have no
// production caller here, but they are facade API: numadag.Histogram
// aliases Histogram for users' own latency summaries, and these complete
// its read side next to Mean, Max and Quantile.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean of recorded values (NaN when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest recorded value, exactly (NaN when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.min
}

// Max returns the largest recorded value, exactly (NaN when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) with
// relative error at most eps. The estimate is clamped to [Min, Max], so
// Quantile(0) and Quantile(1) are exact. NaN when the histogram is empty
// or q is out of range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	if q == 0 {
		return h.min
	}
	if q == 1 {
		return h.max
	}
	// rank of the selected order statistic, 0-based: the same element a
	// sorted slice would yield at index ceil(q*(n-1)).
	rank := uint64(math.Ceil(q * float64(h.count-1)))
	if rank < h.zero {
		// All zero-bucket values are <= 0; min is exact for them.
		if h.min < 0 {
			return h.min
		}
		return 0
	}
	seen := h.zero
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			v := h.bucketValue(h.base + i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
