package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts that got holds exactly the declared metrics, each
// finite and with its declared unit.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []declared) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", what, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, w.Name, m.Value)
		}
	}
	for name := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q", what, name)
		}
	}
}

// TestWorkloadsSmoke runs every workload at its scaled-down size, untraced
// and traced, for one measured round each.
func TestWorkloadsSmoke(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command has %d", len(s.Workloads), len(defs))
	}
	for i, w := range s.Workloads {
		if w.Name != defs[i].name || w.Why != defs[i].why || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), command %q (%s)", i, w.Name, w.Why, defs[i].name, defs[i].why)
		}
	}
	for _, d := range defs {
		t.Run(d.name, func(t *testing.T) {
			plain, err := runOne(d, d.smoke, 7, 0, false, "")
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runOne(d, d.smoke, 7, 0, true, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*report{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("trace=%t: correct=%t attempted=%d failed=%d problems=%v",
						r.Trace, r.Correct, r.Attempted, r.Failed, r.Problems)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("traced digest %s, untraced %s", traced.Digest, plain.Digest)
			}
			checkMetrics(t, "end_to_end", plain.Metrics, s.EndToEnd)
			checkMetrics(t, "per_layer", traced.Metrics, s.PerLayer)
			for name, m := range plain.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if traced.Metrics["core.cell_ms_p50"].Value > 0 {
				if a := traced.Metrics["trace.attributed_pct"].Value; a < 90 {
					t.Errorf("only %.1f%% of batch cell time attributed to layers", a)
				}
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := lookup("nope"); err == nil {
		t.Fatal("lookup of an unknown workload succeeded")
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
