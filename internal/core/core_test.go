package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/rt"
)

func TestNewPolicyKnownNames(t *testing.T) {
	for _, n := range []string{"DFIFO", "LAS", "EP", "RGP+LAS", "RGP"} {
		p, err := NewPolicy(n)
		if err != nil || p == nil {
			t.Errorf("NewPolicy(%q): %v", n, err)
		}
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunSingleConfig(t *testing.T) {
	res, err := Run(DefaultConfig("jacobi", "LAS", apps.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks == 0 || res.Stats.Makespan <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(DefaultConfig("nope", "LAS", apps.Tiny)); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := Run(DefaultConfig("jacobi", "nope", apps.Tiny)); err == nil {
		t.Error("unknown policy accepted")
	}
	// A NaN machine parameter is an error, not a panic deep in the
	// simulator or a silently wrong makespan.
	for _, mut := range []func(*machine.Config){
		func(m *machine.Config) { m.CoreFlops = math.NaN() },
		func(m *machine.Config) { m.MemParallelism = math.NaN() },
		func(m *machine.Config) { m.MemBandwidth = math.NaN() },
		func(m *machine.Config) { m.LinkBandwidth = math.Inf(1) },
	} {
		cfg := DefaultConfig("jacobi", "LAS", apps.Tiny)
		mut(&cfg.Machine)
		if _, err := Run(cfg); err == nil {
			t.Errorf("non-finite machine parameter accepted: %+v", cfg.Machine)
		}
	}
}

// TestNegativeRuntimeOptionsRejected feeds each option NewRuntime rejects
// through Run and through an Experiment variant: both must return an error
// naming the field instead of panicking (in the Experiment's case, inside a
// worker goroutine, which would kill the process).
func TestNegativeRuntimeOptionsRejected(t *testing.T) {
	for _, tc := range []struct {
		field string
		mut   func(*rt.Options)
	}{
		{"WindowSize", func(o *rt.Options) { o.WindowSize = -3 }},
		{"PartitionCostPerTask", func(o *rt.Options) { o.PartitionCostPerTask = -1 }},
	} {
		cfg := DefaultConfig("jacobi", "RGP+LAS", apps.Tiny)
		tc.mut(&cfg.Runtime)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Run with negative %s: err = %v", tc.field, err)
		}
		e := &Experiment{
			Apps:     []string{"jacobi"},
			Policies: []string{"RGP+LAS"},
			Scale:    apps.Tiny,
			Variants: []Variant{{Name: "bad", Mutate: tc.mut}},
		}
		if err := e.Run(context.Background()); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Experiment with negative %s: err = %v", tc.field, err)
		}
	}
}

func TestEveryAppUnderEveryPolicy(t *testing.T) {
	// Exhaustive integration grid: 8 apps x 5 policies at tiny scale, with
	// the schedule audit Run performs internally. This is the suite's
	// broadest correctness net.
	for _, app := range apps.Names() {
		for _, pol := range []string{"DFIFO", "LAS", "EP", "RGP+LAS", "RGP"} {
			app, pol := app, pol
			t.Run(app+"/"+pol, func(t *testing.T) {
				cfg := DefaultConfig(app, pol, apps.Tiny)
				cfg.Runtime.WindowSize = 16 // force several windows even at tiny scale
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Makespan <= 0 || res.Tasks == 0 {
					t.Fatalf("degenerate run: %+v", res.Stats)
				}
			})
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig("cg", "RGP+LAS", apps.Tiny)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(cfg)
	if a.Stats.Makespan != b.Stats.Makespan {
		t.Fatalf("same config, different makespans: %v vs %v", a.Stats.Makespan, b.Stats.Makespan)
	}
}

func TestFigure1SmallShape(t *testing.T) {
	// The load-bearing reproduction check at CI-friendly scale: directional
	// claims of the paper's Figure 1 must hold. Absolute factors are checked
	// loosely; EXPERIMENTS.md records the paper-scale numbers.
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	opt := DefaultFigure1Options()
	opt.Scale = apps.Small
	opt.Seeds = 2
	tb, err := Figure1(opt)
	if err != nil {
		t.Fatal(err)
	}
	// 1. RGP+LAS wins on average (the headline 1.12x claim).
	rgp := tb.Get("geomean", "RGP+LAS")
	if !(rgp > 1.0) {
		t.Errorf("RGP+LAS geomean %.3f, want > 1.0", rgp)
	}
	if rgp > 2.0 {
		t.Errorf("RGP+LAS geomean %.3f implausibly high", rgp)
	}
	// 2. DFIFO loses on average, and badly on the bandwidth-bound apps.
	df := tb.Get("geomean", "DFIFO")
	if !(df < 1.0) {
		t.Errorf("DFIFO geomean %.3f, want < 1.0", df)
	}
	for _, app := range []string{"inthist", "nstream", "jacobi"} {
		if v := tb.Get(app, "DFIFO"); !(v < 0.95) {
			t.Errorf("DFIFO on %s = %.3f, want clearly < 1", app, v)
		}
	}
	// 3. EP is competitive with RGP+LAS (within a factor ~1.5 either way).
	ep := tb.Get("geomean", "EP")
	if ep/rgp > 1.6 || rgp/ep > 1.6 {
		t.Errorf("EP (%.3f) and RGP+LAS (%.3f) geomeans diverge too much", ep, rgp)
	}
	// 4. NStream is the big locality win for both EP and RGP+LAS.
	if v := tb.Get("nstream", "RGP+LAS"); !(v > 1.2) {
		t.Errorf("RGP+LAS on nstream = %.3f, want the paper's large win", v)
	}
	if v := tb.Get("nstream", "EP"); !(v > 1.1) {
		t.Errorf("EP on nstream = %.3f, want a large win", v)
	}
}

func TestFigure1RestrictedApps(t *testing.T) {
	opt := DefaultFigure1Options()
	opt.Scale = apps.Tiny
	opt.Seeds = 1
	opt.Apps = []string{"jacobi"}
	tb, err := Figure1(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := tb.Rows()
	if len(rows) != 2 || rows[0] != "jacobi" || rows[1] != "geomean" {
		t.Fatalf("rows = %v", rows)
	}
	for _, pol := range []string{"DFIFO", "RGP+LAS", "EP"} {
		if math.IsNaN(tb.Get("jacobi", pol)) {
			t.Errorf("missing cell for %s", pol)
		}
	}
}

// TestFigure1SeedValidation pins the one replicate-count rule Figure1
// shares with Experiment: Seeds 0 runs one replicate, a negative count is
// an error.
func TestFigure1SeedValidation(t *testing.T) {
	opt := DefaultFigure1Options()
	opt.Scale = apps.Tiny
	opt.Apps = []string{"jacobi"}
	opt.Seeds = 0
	tb, err := Figure1(opt)
	if err != nil {
		t.Fatalf("zero seeds: %v", err)
	}
	if !strings.Contains(tb.Title, "1 seed(s)") {
		t.Errorf("zero seeds: title %q, want one replicate", tb.Title)
	}
	opt.Seeds = -1
	if _, err := Figure1(opt); err == nil {
		t.Error("negative seeds accepted")
	}
}

func TestUniformMachineShrinksPolicyGap(t *testing.T) {
	// Control experiment: on a NUMA-free machine the only thing separating
	// policies is queueing/load balance, so the spread between the best and
	// worst policy must be clearly smaller than on the bullion, where
	// locality dominates. This pins the simulator's policy gaps to NUMA
	// effects rather than scheduler artifacts.
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	spread := func(m machine.Config) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, pol := range []string{"LAS", "EP", "RGP+LAS", "DFIFO"} {
			cfg := DefaultConfig("jacobi", pol, apps.Small)
			cfg.Machine = m
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			v := float64(res.Stats.Makespan)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return hi / lo
	}
	uniform := spread(machine.Uniform(8, 4))
	bullion := spread(machine.BullionS16())
	if uniform >= bullion {
		t.Errorf("uniform spread %.3f not below bullion spread %.3f", uniform, bullion)
	}
	if uniform > 1.6 {
		t.Errorf("uniform machine separates policies too much: %.3f", uniform)
	}
}

func TestWindowSizeMatters(t *testing.T) {
	// Ablation A1 sanity: a tiny window (partition sees almost nothing)
	// must not beat a full-size window by much on a partitioning-friendly
	// app.
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	run := func(window int) float64 {
		cfg := DefaultConfig("nstream", "RGP+LAS", apps.Small)
		cfg.Runtime.WindowSize = window
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Stats.Makespan)
	}
	tiny, full := run(8), run(2048)
	if full > tiny*1.05 {
		t.Errorf("full window (%.0f) worse than tiny window (%.0f)", full, tiny)
	}
}
