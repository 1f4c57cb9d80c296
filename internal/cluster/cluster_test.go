package cluster

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/core"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/xrand"
)

// testTenants is a four-tenant mix covering all three arrival processes and
// heterogeneous job shapes, including zero-task jobs.
func testTenants() []Tenant {
	return []Tenant{
		{Name: "batch", Specs: []string{"forkjoin?depth=2&fanout=2", "random-layered?layers=3&width=4"},
			Process: "poisson", Rate: 2000},
		{Name: "interactive", Specs: []string{"noop?tasks=4&flops=4096", "noop?tasks=1&flops=1024"},
			Process: "diurnal", Rate: 4000, Amplitude: 0.6, Period: 200 * sim.Millisecond},
		{Name: "cron", Specs: []string{"noop?tasks=0"},
			Process: "trace", Trace: []sim.Time{0, 0, sim.Millisecond, sim.Millisecond, 50 * sim.Millisecond}},
		{Name: "science", Specs: []string{"random-layered?layers=4&width=3&fan=2"},
			Process: "poisson", Rate: 1000},
	}
}

func testConfig(jobs int) Config {
	return Config{
		Machines:   4,
		Machine:    machine.TwoSocketXeon(),
		Policy:     "LAS",
		Runtime:    rt.DefaultOptions(),
		Scale:      apps.Tiny,
		Tenants:    testTenants(),
		Jobs:       jobs,
		Seed:       42,
		Dispatcher: "kchoices?d=2",
		Audit:      true,
	}
}

// TestClusterDeterminism pins the service-mode determinism contract: a
// fixed-seed run is bit-identical across repeats and across snapshot
// prebuild worker counts, for both dispatchers.
func TestClusterDeterminism(t *testing.T) {
	for _, disp := range []string{"kchoices?d=2", "idle"} {
		cfg := testConfig(60)
		cfg.Dispatcher = disp
		cfg.Procs = 1
		base, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", disp, err)
		}
		for _, procs := range []int{1, 4} {
			cfg2 := testConfig(60)
			cfg2.Dispatcher = disp
			cfg2.Procs = procs
			got, err := Run(cfg2)
			if err != nil {
				t.Fatalf("%s procs=%d: %v", disp, procs, err)
			}
			if got.CompletionHash() != base.CompletionHash() {
				t.Fatalf("%s procs=%d: completion hash %x != base %x",
					disp, procs, got.CompletionHash(), base.CompletionHash())
			}
			if !reflect.DeepEqual(got.Jobs, base.Jobs) {
				t.Fatalf("%s procs=%d: job stream differs from base run", disp, procs)
			}
			if got.Steps != base.Steps || got.Makespan != base.Makespan || got.TotalBytes != base.TotalBytes {
				t.Fatalf("%s procs=%d: aggregates differ: steps %d/%d makespan %v/%v bytes %v/%v",
					disp, procs, got.Steps, base.Steps, got.Makespan, base.Makespan,
					got.TotalBytes, base.TotalBytes)
			}
		}
	}
}

// TestClusterSeedSensitivity guards against a degenerate hash: different
// seeds must produce different completion streams.
func TestClusterSeedSensitivity(t *testing.T) {
	a, err := Run(testConfig(40))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(40)
	cfg.Seed = 43
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CompletionHash() == b.CompletionHash() {
		t.Fatal("different seeds produced identical completion hashes")
	}
}

// TestClusterDemo is the acceptance scenario: >= 8 machines, >= 4 tenants,
// >= 500 jobs, with tail-latency slowdowns reported against IdealDC through
// the table sink and per-job results streamed through the core sink
// machinery.
func TestClusterDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("demo scenario is not short")
	}
	cfg := testConfig(500)
	cfg.Machines = 8
	cfg.Audit = false // 500 audits are slow; determinism test audits every job

	var jsonl bytes.Buffer
	res, err := Run(cfg, core.NewJSONLSink(&jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 500 {
		t.Fatalf("completed %d jobs, want 500", len(res.Jobs))
	}
	if got := strings.Count(jsonl.String(), "\n"); got != 500 {
		t.Fatalf("JSONL sink received %d records, want 500", got)
	}
	st := res.Stats
	p50, p95, p99 := st.All.Slowdown.Quantile(0.50), st.All.Slowdown.Quantile(0.95), st.All.Slowdown.Quantile(0.99)
	if p50 < 1-statsEps || p50 > p95 || p95 > p99 {
		t.Fatalf("slowdown quantiles inconsistent: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if f := st.Fairness(); f <= 0 || f > 1 {
		t.Fatalf("fairness %v out of (0, 1]", f)
	}
	if u := st.MeanUtilization(); u <= 0 || u > 1 {
		t.Fatalf("mean utilization %v out of (0, 1]", u)
	}
	total := 0
	for _, n := range st.JobsPerMachine {
		total += n
	}
	if total != 500 {
		t.Fatalf("jobs-per-machine sums to %d, want 500", total)
	}

	tb := st.SummaryTable()
	rows := tb.Rows()
	wantRows := []string{"batch", "interactive", "cron", "science", "all"}
	for _, w := range wantRows {
		found := false
		for _, r := range rows {
			if r == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("summary table missing row %q (rows: %v)", w, rows)
		}
	}
	var rendered bytes.Buffer
	tb.Write(&rendered)
	if !strings.Contains(rendered.String(), "p99") {
		t.Fatalf("rendered table missing p99 column:\n%s", rendered.String())
	}
	t.Logf("\n%s\n%s", rendered.String(), st.Summary())
}

// TestClusterResponseAccounting cross-checks the plumbing on a fully
// controlled single-machine trace: two sequential jobs must queue FIFO and
// the response times must decompose into wait + service exactly.
func TestClusterResponseAccounting(t *testing.T) {
	cfg := Config{
		Machines: 1,
		Machine:  machine.TwoSocketXeon(),
		Policy:   "LAS",
		Runtime:  rt.DefaultOptions(),
		Scale:    apps.Tiny,
		Tenants: []Tenant{{
			Name: "t", Specs: []string{"forkjoin?depth=2&fanout=2"},
			Process: "trace", Trace: []sim.Time{0, 0},
		}},
		Jobs:       2,
		Seed:       7,
		Dispatcher: "idle",
		Audit:      true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j0, j1 := &res.Jobs[0], &res.Jobs[1]
	if j0.StartAt != 0 {
		t.Fatalf("job 0 started at %v, want 0", j0.StartAt)
	}
	if j1.StartAt != j0.EndAt {
		t.Fatalf("job 1 started at %v, want job 0's end %v (FIFO on one machine)", j1.StartAt, j0.EndAt)
	}
	for _, j := range res.Jobs {
		if j.EndAt-j.StartAt != j.Stats.Makespan {
			t.Fatalf("job %d service time %v != runtime makespan %v", j.ID, j.EndAt-j.StartAt, j.Stats.Makespan)
		}
		if j.Slowdown < 1-statsEps {
			t.Fatalf("job %d slowdown %v < 1 (real run beat the fluid ideal?)", j.ID, j.Slowdown)
		}
	}
	if res.Makespan != j1.EndAt {
		t.Fatalf("makespan %v != last completion %v", res.Makespan, j1.EndAt)
	}
}

// TestDispatcherSpecs pins the spec grammar.
func TestDispatcherSpecs(t *testing.T) {
	for _, tc := range []struct{ spec, name string }{
		{"kchoices", "kchoices?d=2"},
		{"kchoices?d=5", "kchoices?d=5"},
		{"idle", "idle"},
		{"kchoices?d=1024", "kchoices?d=1024"},
	} {
		d, err := NewDispatcher(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if d.Name() != tc.name {
			t.Fatalf("%s: canonical name %q, want %q", tc.spec, d.Name(), tc.name)
		}
	}
	for _, bad := range []string{"", "kchoices?d=0", "kchoices?d=x", "kchoices?k=2", "idle?x=1", "rr",
		"kchoices?d=4611686018427387904", "kchoices?d=1025", "kchoices?d=2&d=3", "kchoices?", "idle?"} {
		if _, err := NewDispatcher(bad); err == nil {
			t.Fatalf("spec %q should be rejected", bad)
		}
	}
}

// TestIdleHeapPlacement drives the indexed heap through a
// place/complete sequence and checks it always returns the least-loaded,
// lowest-index machine.
func TestIdleHeapPlacement(t *testing.T) {
	h := &IdleHeap{}
	h.Init(4, xrand.New(1))
	naiveLoad := make([]int, 4)
	naivePick := func() int {
		best := 0
		for i := 1; i < 4; i++ {
			if naiveLoad[i] < naiveLoad[best] {
				best = i
			}
		}
		return best
	}
	rng := xrand.New(99)
	live := 0
	for step := 0; step < 2000; step++ {
		if live == 0 || rng.Float64() < 0.55 {
			want := naivePick()
			got := h.Pick()
			if got != want {
				t.Fatalf("step %d: Pick()=%d, want %d (loads %v)", step, got, want, naiveLoad)
			}
			h.Update(got, +1)
			naiveLoad[got]++
			live++
		} else {
			m := rng.Intn(4)
			for naiveLoad[m] == 0 {
				m = (m + 1) % 4
			}
			h.Update(m, -1)
			naiveLoad[m]--
			live--
		}
	}
}

// TestKChoicesBeatsRandom sanity-checks the power-of-two effect: with
// loads held unequal, kchoices must prefer the less loaded of its sample.
func TestKChoicesBeatsRandom(t *testing.T) {
	k := &KChoices{D: 2}
	k.Init(8, xrand.New(3))
	// Machine 0 heavily loaded: picks should avoid it far more often than
	// the 1/8 uniform baseline.
	k.Update(0, +100)
	hit := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		if k.Pick() == 0 {
			hit++
		}
	}
	// d=2 picks machine 0 only when both samples land on it: p = 1/64.
	if float64(hit)/trials > 0.05 {
		t.Fatalf("kchoices picked the overloaded machine %d/%d times", hit, trials)
	}
}

// TestArrivalsProperties pins the arrival-stream invariants directly.
func TestArrivalsProperties(t *testing.T) {
	// 600 jobs at the combined ~7000 jobs/s spans ~85ms of simulated time,
	// comfortably past the trace tenant's last entry at 50ms.
	jobs, err := Arrivals(testTenants(), 1, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 600 {
		t.Fatalf("got %d jobs, want 600", len(jobs))
	}
	for i := range jobs {
		if jobs[i].ID != i {
			t.Fatalf("job %d has ID %d", i, jobs[i].ID)
		}
		if i > 0 && jobs[i].SubmitAt < jobs[i-1].SubmitAt {
			t.Fatalf("arrivals unsorted at %d", i)
		}
	}
	// Trace tenant contributes exactly its five submissions, including the
	// same-instant burst at t=0.
	cron := 0
	for i := range jobs {
		if jobs[i].Tenant == 2 {
			cron++
		}
	}
	if cron != 5 {
		t.Fatalf("trace tenant contributed %d jobs, want 5", cron)
	}
	if jobs[0].SubmitAt != 0 || jobs[1].SubmitAt != 0 {
		t.Fatalf("t=0 burst missing: first arrivals at %v, %v", jobs[0].SubmitAt, jobs[1].SubmitAt)
	}
}

func TestArrivalsTraceExhaustion(t *testing.T) {
	tenants := []Tenant{{Name: "t", Specs: []string{"noop"}, Process: "trace",
		Trace: []sim.Time{1, 2, 3}}}
	jobs, err := Arrivals(tenants, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs from a 3-entry trace, want 3", len(jobs))
	}
}

func TestArrivalsValidation(t *testing.T) {
	bad := [][]Tenant{
		nil,
		{{Name: "", Specs: []string{"noop"}, Process: "poisson", Rate: 1}},
		{{Name: "a", Specs: nil, Process: "poisson", Rate: 1}},
		{{Name: "a", Specs: []string{"noop"}, Process: "poisson", Rate: 0}},
		{{Name: "a", Specs: []string{"noop"}, Process: "diurnal", Rate: 1, Amplitude: 1.5}},
		{{Name: "a", Specs: []string{"noop"}, Process: "poisson", Rate: math.NaN()}},
		{{Name: "a", Specs: []string{"noop"}, Process: "poisson", Rate: math.Inf(1)}},
		{{Name: "a", Specs: []string{"noop"}, Process: "diurnal", Rate: math.Inf(-1)}},
		{{Name: "a", Specs: []string{"noop"}, Process: "diurnal", Rate: 1, Amplitude: math.NaN()}},
		{{Name: "a", Specs: []string{"noop"}, Process: "trace", Trace: []sim.Time{5, 4}}},
		{{Name: "a", Specs: []string{"noop"}, Process: "weibull", Rate: 1}},
		{{Name: "a", Specs: []string{"noop"}, Process: "poisson", Rate: 1},
			{Name: "a", Specs: []string{"noop"}, Process: "poisson", Rate: 1}},
		// Submit times past maxSubmit: from a trace, or from a rate so low
		// that five gaps would wrap the clock.
		{{Name: "a", Specs: []string{"noop"}, Process: "trace", Trace: []sim.Time{0, math.MaxInt64}}},
		{{Name: "a", Specs: []string{"noop"}, Process: "poisson", Rate: 1e-300}},
		{{Name: "a", Specs: []string{"noop"}, Process: "diurnal", Rate: 1e-300, Amplitude: 0.5}},
	}
	for i, tenants := range bad {
		if _, err := Arrivals(tenants, 1, 5); err == nil {
			t.Fatalf("case %d: invalid tenants accepted", i)
		}
	}
}

// TestIdealDC pins the fluid model on hand-computable scenarios.
func TestIdealDC(t *testing.T) {
	mc := machine.TwoSocketXeon()
	perJob := float64(mc.TotalCores()) * mc.CoreFlops

	// The fluid drains happen in float ns, so a truncation at sim.Time
	// conversion may land 1ns short of the closed-form value.
	near := func(got, want sim.Time) bool {
		d := got - want
		return d >= -1 && d <= 1
	}

	// One job alone: response = work / perJobCap (capacity cap inactive).
	d := NewIdealDC(&mc, 4)
	jobs := []Job{{ID: 0, SubmitAt: 0}}
	resp := d.Respond(jobs, []float64{perJob * 100})
	if !near(resp[0], 100) {
		t.Fatalf("solo job: ideal response %v, want ~100", resp[0])
	}

	// Five simultaneous jobs on a 4-machine fleet: each runs at 4/5 of a
	// machine, so response = work/perJob * 5/4 = 125.
	jobs = make([]Job, 5)
	work := make([]float64, 5)
	for i := range jobs {
		jobs[i] = Job{ID: i, SubmitAt: 0}
		work[i] = perJob * 100
	}
	resp = d.Respond(jobs, work)
	for i, r := range resp {
		if !near(r, 125) {
			t.Fatalf("shared job %d: ideal response %v, want ~125", i, r)
		}
	}

	// Zero-work job: floors at 1ns.
	resp = d.Respond([]Job{{ID: 0, SubmitAt: 3}}, []float64{0})
	if resp[0] != 1 {
		t.Fatalf("zero-work ideal response %v, want 1", resp[0])
	}
}

// TestClusterValidation covers Run's config rejection paths.
func TestClusterValidation(t *testing.T) {
	// 40 jobs guarantees every poisson tenant contributes, so a bad spec on
	// tenant 0 is certain to be resolved (and rejected).
	good := testConfig(40)
	for _, tc := range []struct {
		mut  func(*Config)
		want string // substring the error must contain
	}{
		{func(c *Config) { c.Machines = 0 }, ""},
		{func(c *Config) { c.Policy = "" }, ""},
		{func(c *Config) { c.Jobs = 0 }, ""},
		{func(c *Config) { c.Tenants = nil }, ""},
		{func(c *Config) { c.Dispatcher = "bogus" }, ""},
		{func(c *Config) { c.Policy = "no-such-policy" }, ""},
		{func(c *Config) { c.Tenants[0].Specs = []string{"no-such-workload"} }, ""},
		{func(c *Config) { c.Machine.MemBandwidth = math.NaN() }, ""},
		// Options NewRuntime would panic on fail up front, naming the field.
		{func(c *Config) { c.Runtime.WindowSize = -3 }, "WindowSize"},
		{func(c *Config) { c.Runtime.PartitionCostPerTask = -1 }, "PartitionCostPerTask"},
	} {
		cfg := good
		cfg.Tenants = testTenants()
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("invalid config: err = %v, want one containing %q: %+v", err, tc.want, cfg)
		}
	}
}
