package metrics

import (
	"math"
	"sort"
	"testing"

	"numadag/internal/xrand"
)

// exactQuantile returns the order statistic the histogram targets: the
// element a sorted slice yields at index ceil(q*(n-1)).
func exactQuantile(sorted []float64, q float64) float64 {
	return sorted[int(math.Ceil(q*float64(len(sorted)-1)))]
}

func checkQuantiles(t *testing.T, h *Histogram, values []float64, eps float64) {
	t.Helper()
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		want := exactQuantile(sorted, q)
		if want <= 0 {
			// Zero bucket: estimate must be exact for non-positive values
			// (clamped to min) or 0.
			if got != want && got != 0 {
				t.Errorf("q=%v: got %v, want %v (zero bucket)", q, got, want)
			}
			continue
		}
		if relErr := math.Abs(got-want) / want; relErr > eps+1e-12 {
			t.Errorf("q=%v: got %v, want %v, rel err %v > %v", q, got, want, relErr, eps)
		}
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	const eps = 0.01
	cases := map[string][]float64{
		"uniform":   nil, // filled below
		"lognormal": nil,
		"widerange": {1e-9, 1e-6, 1e-3, 1, 1e3, 1e6, 1e9, 2.5e4, 7.7e-2, 3.14},
		"constant":  {42, 42, 42, 42, 42},
		"single":    {17.5},
		"withzeros": {0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
	rng := xrand.New(7)
	uni := make([]float64, 5000)
	for i := range uni {
		uni[i] = rng.Float64() * 1000
	}
	cases["uniform"] = uni
	logn := make([]float64, 5000)
	for i := range logn {
		logn[i] = math.Exp(rng.Float64()*6 - 3)
	}
	cases["lognormal"] = logn

	for name, values := range cases {
		t.Run(name, func(t *testing.T) {
			h := NewHistogram(eps)
			for _, v := range values {
				h.Add(v)
			}
			if h.Count() != uint64(len(values)) {
				t.Fatalf("Count = %d, want %d", h.Count(), len(values))
			}
			checkQuantiles(t, h, values, eps)
		})
	}
}

func TestHistogramExactEndpoints(t *testing.T) {
	h := NewHistogram(0.05)
	values := []float64{3.7, 1.2, 99.4, 0.003, 42}
	sum := 0.0
	for _, v := range values {
		h.Add(v)
		sum += v
	}
	if got := h.Min(); got != 0.003 {
		t.Errorf("Min = %v, want 0.003", got)
	}
	if got := h.Max(); got != 99.4 {
		t.Errorf("Max = %v, want 99.4", got)
	}
	if got := h.Quantile(0); got != 0.003 {
		t.Errorf("Quantile(0) = %v, want exact min", got)
	}
	if got := h.Quantile(1); got != 99.4 {
		t.Errorf("Quantile(1) = %v, want exact max", got)
	}
	if got := h.Sum(); math.Abs(got-sum) > 1e-9 {
		t.Errorf("Sum = %v, want %v", got, sum)
	}
	if got := h.Mean(); math.Abs(got-sum/5) > 1e-9 {
		t.Errorf("Mean = %v, want %v", got, sum/5)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0.01)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); !math.IsNaN(got) {
			t.Errorf("empty Quantile(%v) = %v, want NaN", q, got)
		}
	}
	if !math.IsNaN(h.Mean()) || !math.IsNaN(h.Min()) || !math.IsNaN(h.Max()) {
		t.Error("empty Mean/Min/Max should be NaN")
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("empty Count/Sum should be 0")
	}
}

// TestHistogramOrderIndependence pins the property cluster mode relies on:
// the same values added in a different order yield identical count, zero
// bucket, min, max and bucket counts — and therefore bit-identical
// quantiles. Sum is a float accumulation and is deliberately not compared.
func TestHistogramOrderIndependence(t *testing.T) {
	const eps = 0.01
	rng := xrand.New(99)
	values := make([]float64, 4000)
	for i := range values {
		switch i % 7 {
		case 0:
			values[i] = 0 // zero-length jobs
		case 1:
			values[i] = math.Exp(rng.Float64()*20 - 10) // wide dynamic range
		default:
			values[i] = 1 + rng.Float64()*100
		}
	}

	fwd, rev := NewHistogram(eps), NewHistogram(eps)
	for i := range values {
		fwd.Add(values[i])
		rev.Add(values[len(values)-1-i])
	}
	if fwd.Count() != rev.Count() || fwd.zero != rev.zero {
		t.Fatalf("count/zero differ: %d/%d vs %d/%d", fwd.Count(), fwd.zero, rev.Count(), rev.zero)
	}
	if fwd.Min() != rev.Min() || fwd.Max() != rev.Max() {
		t.Fatalf("min/max differ: %v/%v vs %v/%v", fwd.Min(), fwd.Max(), rev.Min(), rev.Max())
	}
	lo, hi := min(fwd.base, rev.base), max(fwd.base+len(fwd.counts), rev.base+len(rev.counts))
	for idx := lo; idx < hi; idx++ {
		if got, want := bucketCount(rev, idx), bucketCount(fwd, idx); got != want {
			t.Fatalf("bucket %d count %d != %d", idx, got, want)
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		g, w := rev.Quantile(q), fwd.Quantile(q)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("Quantile(%v) = %v in reverse order, %v forward (must be bit-identical)", q, g, w)
		}
	}
}

func bucketCount(h *Histogram, idx int) uint64 {
	if idx < h.base || idx >= h.base+len(h.counts) {
		return 0
	}
	return h.counts[idx-h.base]
}

func TestHistogramAddNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(NaN) should panic")
		}
	}()
	NewHistogram(0.01).Add(math.NaN())
}

func TestHistogramAddN(t *testing.T) {
	a := NewHistogram(0.01)
	b := NewHistogram(0.01)
	for i := 0; i < 10; i++ {
		a.Add(3.5)
	}
	b.AddN(3.5, 10)
	b.AddN(9, 0) // no-op
	if a.Count() != b.Count() || a.Sum() != b.Sum() || a.Quantile(0.5) != b.Quantile(0.5) {
		t.Fatal("AddN(v, 10) differs from 10x Add(v)")
	}
}
