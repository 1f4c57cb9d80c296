package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"numadag/internal/core"
	"numadag/internal/sim"
	"numadag/internal/xrand"
)

// Tenant describes one simulated customer: which workload specs its jobs
// draw from and the arrival process that submits them. Every tenant owns an
// independent random stream seeded core.DeriveSeed(cfg.Seed, tenantIndex),
// so adding a tenant or changing its rate never perturbs another tenant's
// arrivals — the cluster analogue of the per-replicate seed formula.
type Tenant struct {
	// Name labels the tenant in metrics and sinks (fairness is reported
	// per tenant). Must be non-empty and unique within a Config.
	Name string
	// Specs lists the workload registry specs this tenant's jobs are drawn
	// from, uniformly at random per job ("jacobi?nb=8", "forkjoin?depth=5",
	// ...). Must be non-empty.
	Specs []string
	// Process selects the arrival process: "poisson" (open-loop, constant
	// rate), "diurnal" (Poisson modulated by a sinusoidal day/night curve,
	// thinned Lewis-Shedler style) or "trace" (explicit submit times).
	Process string
	// Rate is the mean arrival rate in jobs per simulated second, for the
	// poisson and diurnal processes.
	Rate float64
	// Period and Amplitude shape the diurnal curve: instantaneous rate is
	// Rate * (1 + Amplitude*sin(2*pi*t/Period)). Amplitude must be in
	// [0, 1); Period defaults to one simulated second.
	Period    sim.Time
	Amplitude float64
	// Trace holds explicit submit times for the "trace" process, in
	// non-decreasing order. Duplicate times are legal (a same-instant
	// burst); the stream ends when the trace does.
	Trace []sim.Time
}

func (t *Tenant) validate(idx int) error {
	if t.Name == "" {
		return fmt.Errorf("cluster: tenant %d has no name", idx)
	}
	if len(t.Specs) == 0 {
		return fmt.Errorf("cluster: tenant %q has no workload specs", t.Name)
	}
	switch t.Process {
	case "poisson", "diurnal":
		// Negated comparisons so NaN fails them too.
		if !(t.Rate > 0) || math.IsInf(t.Rate, 1) {
			return fmt.Errorf("cluster: tenant %q: %s process with rate %v", t.Name, t.Process, t.Rate)
		}
		if t.Process == "diurnal" {
			if !(t.Amplitude >= 0 && t.Amplitude < 1) {
				return fmt.Errorf("cluster: tenant %q: diurnal amplitude %v out of [0, 1)", t.Name, t.Amplitude)
			}
			if t.Period < 0 {
				return fmt.Errorf("cluster: tenant %q: negative diurnal period", t.Name)
			}
		}
	case "trace":
		for i := 1; i < len(t.Trace); i++ {
			if t.Trace[i] < t.Trace[i-1] {
				return fmt.Errorf("cluster: tenant %q: trace times decrease at index %d", t.Name, i)
			}
		}
		if len(t.Trace) > 0 && t.Trace[0] < 0 {
			return fmt.Errorf("cluster: tenant %q: negative trace time", t.Name)
		}
		if len(t.Trace) > 0 && t.Trace[len(t.Trace)-1] > maxSubmit {
			return fmt.Errorf("cluster: tenant %q: trace time %v beyond the last submit time %v", t.Name, t.Trace[len(t.Trace)-1], maxSubmit)
		}
	default:
		return fmt.Errorf("cluster: tenant %q: unknown arrival process %q (poisson, diurnal, trace)", t.Name, t.Process)
	}
	return nil
}

// ParseTenants decodes a tenant mix: comma-separated declarations of the
// form name:process:rate:spec[|spec...], where rate is jobs per simulated
// second. An empty spec yields the default four-tenant mix at the given
// total rate, split 4:2:1 across interactive/batch/science, plus a
// three-entry cron trace. Only the syntax is checked here; Run (through
// Arrivals) validates the tenants themselves.
func ParseTenants(spec string, totalRate float64) ([]Tenant, error) {
	if spec == "" {
		if totalRate <= 0 {
			return nil, fmt.Errorf("-rate must be positive")
		}
		return []Tenant{
			{Name: "interactive", Specs: []string{"noop?tasks=4&flops=4096", "noop?tasks=1&flops=1024"},
				Process: "diurnal", Rate: totalRate * 4 / 7, Amplitude: 0.6, Period: 200 * sim.Millisecond},
			{Name: "batch", Specs: []string{"forkjoin?depth=2&fanout=2", "random-layered?layers=3&width=4"},
				Process: "poisson", Rate: totalRate * 2 / 7},
			{Name: "science", Specs: []string{"random-layered?layers=4&width=3&fan=2"},
				Process: "poisson", Rate: totalRate / 7},
			{Name: "cron", Specs: []string{"noop?tasks=0"},
				Process: "trace", Trace: []sim.Time{0, sim.Millisecond, 50 * sim.Millisecond}},
		}, nil
	}
	var tenants []Tenant
	for _, decl := range strings.Split(spec, ",") {
		parts := strings.SplitN(decl, ":", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("tenant %q: want name:process:rate:spec|spec", decl)
		}
		r, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: bad rate %q", parts[0], parts[2])
		}
		tenants = append(tenants, Tenant{
			Name:    parts[0],
			Process: parts[1],
			Rate:    r,
			Specs:   strings.Split(parts[3], "|"),
		})
	}
	return tenants, nil
}

// maxSubmit bounds submit times to a quarter of the simulated clock's
// range, leaving the rest for the jobs to run: a tenant whose rate is so
// low that its stream passes it is an error, not a wrapped clock.
const maxSubmit = sim.Time(math.MaxInt64 / 4)

// arrivalStream generates one tenant's submit times lazily. next returns
// the next submit time, or ok=false when the stream is exhausted (only the
// trace process ever exhausts).
type arrivalStream struct {
	tenant *Tenant
	rng    *xrand.Rand
	now    sim.Time // last emitted time (trace: next index)
	idx    int
}

// expDelay draws an exponential inter-arrival gap for the given rate in
// jobs/second, quantized to >= 1ns so the clock always advances between a
// tenant's own Poisson arrivals (bursts still happen across tenants and in
// traces).
func expDelay(rng *xrand.Rand, ratePerSec float64) sim.Time {
	u := rng.Float64()
	gap := -math.Log(1-u) / ratePerSec * float64(sim.Second)
	if gap < 1 {
		gap = 1
	}
	if gap > float64(math.MaxInt64/4) {
		gap = float64(math.MaxInt64 / 4)
	}
	return sim.Time(gap)
}

func (s *arrivalStream) next() (sim.Time, bool, error) {
	t := s.tenant
	switch t.Process {
	case "poisson":
		if err := s.advance(expDelay(s.rng, t.Rate)); err != nil {
			return 0, false, err
		}
		return s.now, true, nil
	case "diurnal":
		// Lewis-Shedler thinning against the peak rate: draw candidate gaps
		// at Rate*(1+A) and accept each candidate with probability
		// rate(t)/peak. Deterministic given the tenant stream.
		period := t.Period
		if period <= 0 {
			period = sim.Second
		}
		peak := t.Rate * (1 + t.Amplitude)
		for {
			if err := s.advance(expDelay(s.rng, peak)); err != nil {
				return 0, false, err
			}
			phase := 2 * math.Pi * float64(s.now%period) / float64(period)
			rate := t.Rate * (1 + t.Amplitude*math.Sin(phase))
			if s.rng.Float64()*peak <= rate {
				return s.now, true, nil
			}
		}
	case "trace":
		if s.idx >= len(t.Trace) {
			return 0, false, nil
		}
		at := t.Trace[s.idx]
		s.idx++
		return at, true, nil
	}
	panic("cluster: unvalidated arrival process")
}

// advance moves the stream's clock on by gap, failing past maxSubmit.
func (s *arrivalStream) advance(gap sim.Time) error {
	if gap > maxSubmit-s.now {
		return fmt.Errorf("cluster: tenant %q: rate %v puts submit times beyond %v", s.tenant.Name, s.tenant.Rate, maxSubmit)
	}
	s.now += gap
	return nil
}

// Arrivals generates the first n jobs of the configured tenants, merged
// into one stream ordered by (submit time, tenant index, per-tenant
// sequence) and numbered 0..n-1 in that order. The stream is a pure
// function of (tenants, seed): per-tenant randomness comes from
// core.DeriveSeed(seed, tenantIndex), and the merge is a deterministic
// k-way pick, so the same configuration always yields the identical job
// list — the foundation of cluster-mode determinism goldens.
//
// Each job's Spec is drawn uniformly from its tenant's Specs using the same
// tenant stream. Fewer than n jobs are returned only when every tenant uses
// a finite trace and the traces run dry.
func Arrivals(tenants []Tenant, seed uint64, n int) ([]Job, error) {
	if n < 0 {
		return nil, fmt.Errorf("cluster: negative job count %d", n)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("cluster: no tenants")
	}
	for i := range tenants {
		if err := tenants[i].validate(i); err != nil {
			return nil, err
		}
		for j := 0; j < i; j++ {
			if tenants[j].Name == tenants[i].Name {
				return nil, fmt.Errorf("cluster: duplicate tenant name %q", tenants[i].Name)
			}
		}
	}
	streams := make([]arrivalStream, len(tenants))
	heads := make([]sim.Time, len(tenants))
	live := make([]bool, len(tenants))
	var err error
	for i := range tenants {
		streams[i] = arrivalStream{tenant: &tenants[i], rng: xrand.New(core.DeriveSeed(seed, i))}
		if heads[i], live[i], err = streams[i].next(); err != nil {
			return nil, err
		}
	}
	jobs := make([]Job, 0, n)
	for len(jobs) < n {
		best := -1
		for i := range heads {
			if !live[i] {
				continue
			}
			if best < 0 || heads[i] < heads[best] {
				best = i
			}
		}
		if best < 0 {
			break // all traces exhausted
		}
		t := &tenants[best]
		spec := t.Specs[0]
		if len(t.Specs) > 1 {
			spec = t.Specs[streams[best].rng.Intn(len(t.Specs))]
		}
		jobs = append(jobs, Job{
			ID:       len(jobs),
			Tenant:   best,
			Spec:     spec,
			SubmitAt: heads[best],
			Machine:  -1,
		})
		if heads[best], live[best], err = streams[best].next(); err != nil {
			return nil, err
		}
	}
	// The k-way pick already yields (time, tenant) order; assert it rather
	// than trust it — FuzzArrivals leans on this invariant.
	if !sort.SliceIsSorted(jobs, func(a, b int) bool {
		if jobs[a].SubmitAt != jobs[b].SubmitAt {
			return jobs[a].SubmitAt < jobs[b].SubmitAt
		}
		return jobs[a].Tenant < jobs[b].Tenant
	}) {
		panic("cluster: arrival merge produced an unsorted stream")
	}
	return jobs, nil
}
