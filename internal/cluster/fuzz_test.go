package cluster

import (
	"math"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/workload"
	"numadag/internal/xrand"
)

// FuzzArrivals throws adversarial arrival patterns at the full service
// loop: bursty same-instant trace submissions, zero-length (zero-task,
// zero-flop) jobs, and heavily skewed tenant rates. Whatever the pattern,
// the run must never stall (every job completes), never reorder the shared
// clock (the completion stream is monotone and consistent), and stay
// deterministic (a second identical run is bit-identical).
func FuzzArrivals(f *testing.F) {
	f.Add(uint64(42), 1.0, 1.0, uint8(3), uint8(2), false)
	f.Add(uint64(7), 2000.0, 1.0, uint8(8), uint8(1), true)     // same-instant burst, skewed rates
	f.Add(uint64(1), 0.5, 900.0, uint8(0), uint8(3), true)      // tenant skew the other way
	f.Add(uint64(99), 100.0, 100.0, uint8(16), uint8(4), false) // wide burst
	f.Add(uint64(3), 5000.0, 5000.0, uint8(2), uint8(2), true)  // high pressure, tiny fleet

	f.Fuzz(func(t *testing.T, seed uint64, rateA, rateB float64, burst, machines uint8, zeroJobs bool) {
		// Clamp the fuzzed inputs into the legal (but still nasty) range.
		if rateA <= 0 || rateA > 1e6 || rateA != rateA {
			rateA = 1
		}
		if rateB <= 0 || rateB > 1e6 || rateB != rateB {
			rateB = 1000
		}
		nm := int(machines%4) + 1
		trace := make([]sim.Time, int(burst%24))
		for i := range trace {
			// All trace arrivals at two instants (times non-decreasing): a
			// t=0 burst and a mid-run burst landing on in-flight jobs.
			if i >= len(trace)/2 {
				trace[i] = 20 * sim.Microsecond
			}
		}
		heavySpec := "noop?tasks=3&flops=2048"
		if zeroJobs {
			heavySpec = "noop?tasks=0"
		}
		cfg := Config{
			Machines: nm,
			Machine:  machine.TwoSocketXeon(),
			Policy:   "LAS",
			Runtime:  rt.DefaultOptions(),
			Scale:    apps.Tiny,
			Tenants: []Tenant{
				{Name: "a", Specs: []string{heavySpec, "noop?tasks=1"}, Process: "poisson", Rate: rateA},
				{Name: "b", Specs: []string{"forkjoin?depth=2&fanout=2"}, Process: "diurnal",
					Rate: rateB, Amplitude: 0.9, Period: 10 * sim.Microsecond},
				{Name: "c", Specs: []string{"noop?tasks=0"}, Process: "trace", Trace: trace},
			},
			Jobs:       30,
			Seed:       seed,
			Dispatcher: "idle",
			Audit:      true,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// No stall: Run already errors when jobs are left behind; re-check
		// the count and the per-job clock invariants.
		for i := range res.Jobs {
			j := &res.Jobs[i]
			if j.StartAt < j.SubmitAt || j.EndAt < j.StartAt {
				t.Fatalf("job %d clock reorder: submit %v start %v end %v", j.ID, j.SubmitAt, j.StartAt, j.EndAt)
			}
			if j.Machine < 0 || j.Machine >= nm {
				t.Fatalf("job %d on machine %d of %d", j.ID, j.Machine, nm)
			}
			if i > 0 && j.SubmitAt < res.Jobs[i-1].SubmitAt {
				t.Fatalf("arrival order broken at job %d", j.ID)
			}
		}
		// The occupancy timeline must be monotone in time and never go
		// negative or exceed the fleet.
		var last sim.Time
		for _, p := range res.Stats.Timeline {
			if p.At < last {
				t.Fatalf("timeline reordered: %v after %v", p.At, last)
			}
			last = p.At
			if p.Busy < 0 || p.Busy > nm || p.Queued < 0 {
				t.Fatalf("impossible occupancy: %+v with %d machines", p, nm)
			}
		}
		// Determinism: an identical second run reproduces the stream.
		res2, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CompletionHash() != res2.CompletionHash() {
			t.Fatalf("repeat run diverged: %x vs %x", res.CompletionHash(), res2.CompletionHash())
		}
	})
}

// FuzzTenantMix drives arbitrary -tenants strings and total rates through
// ParseTenants and a 20-job audited Run. Every input must yield an error or
// a run in which every job completes — never a panic or a hang. Mixes whose
// workload specs build graphs above 1024 tasks are parsed but not run:
// FuzzWorkloadSpec covers building those, and 20 audited jobs of up to
// workload.MaxTasks tasks would make one input take minutes.
func FuzzTenantMix(f *testing.F) {
	for _, seed := range []struct {
		spec string
		rate float64
	}{
		{"", 7000},
		{"", math.NaN()},
		{"", math.Inf(1)},
		{"", 0},
		{"", -5},
		{"web:poisson:4000:noop?tasks=4,hpc:diurnal:500:forkjoin?depth=5", 0},
		{"a:poisson:NaN:noop?tasks=1", 0},
		{"a:poisson:+Inf:noop?tasks=1", 0},
		{"a:diurnal:-Inf:noop?tasks=1", 0},
		{"a:poisson:0:noop?tasks=1", 0},
		{"a:poisson:-3:noop?tasks=1", 0},
		{"a:poisson:1e-300:noop?tasks=1", 0},
		{"a:poisson:100:noop?tasks=1,", 0},
		{"a:poisson:100:noop?tasks=1,a:diurnal:50:noop?tasks=2", 0},
		{"cron:trace:1:noop?tasks=0", 0},
		{"cron:trace:1:noop?tasks=0,web:poisson:1e6:noop?tasks=0|noop?tasks=3", 0},
		{"a:poisson:10:", 0},
		{"a:burst:10:noop", 0},
	} {
		f.Add(seed.spec, seed.rate)
	}
	mc := machine.TwoSocketXeon()
	f.Fuzz(func(t *testing.T, spec string, rate float64) {
		tenants, err := ParseTenants(spec, rate)
		if err != nil {
			return
		}
		for _, tn := range tenants {
			for _, s := range tn.Specs {
				w, err := workload.New(s, apps.Tiny)
				if err != nil {
					continue
				}
				if snap, err := w.Snapshot(mc); err == nil && snap.Tasks() > 1024 {
					return
				}
			}
		}
		cfg := Config{
			Machines: 2,
			Machine:  mc,
			Policy:   "LAS",
			Runtime:  rt.DefaultOptions(),
			Scale:    apps.Tiny,
			Tenants:  tenants,
			Jobs:     20,
			Seed:     1,
			Audit:    true,
		}
		res, err := Run(cfg)
		if err != nil {
			return
		}
		// Run reports a stall as an error; check the count it returned.
		if res.Stats.All.Jobs != len(res.Jobs) {
			t.Fatalf("%q: %d of %d jobs completed", spec, res.Stats.All.Jobs, len(res.Jobs))
		}
	})
}

// FuzzDispatcherSpec drives arbitrary -dispatcher strings through
// NewDispatcher. Every input must yield an error or a dispatcher that
// initialises on 4 machines and places and removes 50 jobs, each on a
// machine in range, and whose canonical name parses back to itself — never
// a panic or an allocation sized by an unchecked d.
func FuzzDispatcherSpec(f *testing.F) {
	for _, s := range []string{
		"kchoices",
		"kchoices?d=2",
		"kchoices?d=1024",
		"idle",
		"kchoices?d=4611686018427387904",
		"kchoices?d=2&d=3",
		"kchoices?",
		"idle?",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := NewDispatcher(s)
		if err != nil {
			return
		}
		if again, err := NewDispatcher(d.Name()); err != nil || again.Name() != d.Name() {
			t.Fatalf("%q: canonical name %q does not parse back: %v", s, d.Name(), err)
		}
		const machines, jobs = 4, 50
		d.Init(machines, xrand.New(1))
		placed := make([]int, 0, jobs)
		for i := 0; i < jobs; i++ {
			m := d.Pick()
			if m < 0 || m >= machines {
				t.Fatalf("%q: job %d placed on machine %d of %d", s, i, m, machines)
			}
			d.Update(m, +1)
			placed = append(placed, m)
		}
		for _, m := range placed {
			d.Update(m, -1)
		}
	})
}
