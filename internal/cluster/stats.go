package cluster

import (
	"fmt"

	"numadag/internal/metrics"
	"numadag/internal/sim"
)

// statsEps is the relative accuracy of the streaming response/slowdown
// histograms. 1% keeps p99 honest for tail-latency plots while holding the
// sketch to a few hundred buckets across nanosecond..hour ranges.
const statsEps = 0.01

// UtilPoint is one sample of the cluster occupancy timeline, recorded at
// every job start and completion: Busy machines are running a job, Queued
// counts jobs waiting behind them.
type UtilPoint struct {
	At     sim.Time
	Busy   int
	Queued int
}

// TenantStats aggregates one tenant's jobs (or, for the cluster-wide row,
// all jobs).
type TenantStats struct {
	Name     string
	Jobs     int
	Response *metrics.Histogram // response time, ns
	Slowdown *metrics.Histogram // response / IdealDC response
}

// Stats collects cluster-run metrics: streaming response and slowdown
// distributions globally and per tenant, a machine-occupancy timeline, and
// per-machine job counts. Everything is accumulated online during the run
// and summarized after the engine drains.
type Stats struct {
	All            TenantStats
	Tenants        []TenantStats
	Timeline       []UtilPoint
	JobsPerMachine []int

	machines int
	lastAt   sim.Time
	busyInt  float64 // time-weighted busy-machine integral
	busyNow  int
	queueNow int
}

func newStats(tenants []Tenant, machines int) *Stats {
	s := &Stats{
		All: TenantStats{
			Name:     "all",
			Response: metrics.NewHistogram(statsEps),
			Slowdown: metrics.NewHistogram(statsEps),
		},
		Tenants:        make([]TenantStats, len(tenants)),
		JobsPerMachine: make([]int, machines),
		machines:       machines,
	}
	for i := range tenants {
		s.Tenants[i] = TenantStats{
			Name:     tenants[i].Name,
			Response: metrics.NewHistogram(statsEps),
			Slowdown: metrics.NewHistogram(statsEps),
		}
	}
	return s
}

// sample advances the time-weighted occupancy integral to `at` and records
// a timeline point. dBusy/dQueue are the deltas this event applies.
func (s *Stats) sample(at sim.Time, dBusy, dQueue int) {
	s.busyInt += float64(at-s.lastAt) * float64(s.busyNow)
	s.lastAt = at
	s.busyNow += dBusy
	s.queueNow += dQueue
	s.Timeline = append(s.Timeline, UtilPoint{At: at, Busy: s.busyNow, Queued: s.queueNow})
}

// observe records one completed job.
func (s *Stats) observe(job *Job, response sim.Time, slowdown float64) {
	s.All.Jobs++
	s.All.Response.Add(float64(response))
	s.All.Slowdown.Add(slowdown)
	t := &s.Tenants[job.Tenant]
	t.Jobs++
	t.Response.Add(float64(response))
	t.Slowdown.Add(slowdown)
	s.JobsPerMachine[job.Machine]++
}

// MeanUtilization returns the time-weighted fraction of machines busy over
// [0, end of run].
func (s *Stats) MeanUtilization() float64 {
	if s.lastAt == 0 || s.machines == 0 {
		return 0
	}
	return s.busyInt / (float64(s.lastAt) * float64(s.machines))
}

// Fairness returns min/max of per-tenant mean slowdowns — 1.0 means every
// tenant experiences identical average service quality, values near 0 mean
// some tenant is starved relative to another. Tenants with no completed
// jobs are skipped; returns 1 when fewer than two tenants have jobs.
func (s *Stats) Fairness() float64 {
	min, max := 0.0, 0.0
	seen := 0
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if t.Jobs == 0 {
			continue
		}
		m := t.Slowdown.Mean()
		if seen == 0 || m < min {
			min = m
		}
		if seen == 0 || m > max {
			max = m
		}
		seen++
	}
	if seen < 2 || max == 0 {
		return 1
	}
	return min / max
}

// SummaryTable renders the per-tenant tail-latency report: one row per
// tenant plus the cluster-wide "all" row, with job counts, mean and
// p50/p95/p99 slowdown versus IdealDC, and p99 response time in
// milliseconds.
func (s *Stats) SummaryTable() *metrics.Table {
	tb := metrics.NewTable("service-mode tail latency (slowdown vs IdealDC)",
		"jobs", "mean", "p50", "p95", "p99", "resp99_ms")
	row := func(t *TenantStats) {
		tb.Set(t.Name, "jobs", float64(t.Jobs))
		if t.Jobs == 0 {
			return
		}
		tb.Set(t.Name, "mean", t.Slowdown.Mean())
		tb.Set(t.Name, "p50", t.Slowdown.Quantile(0.50))
		tb.Set(t.Name, "p95", t.Slowdown.Quantile(0.95))
		tb.Set(t.Name, "p99", t.Slowdown.Quantile(0.99))
		tb.Set(t.Name, "resp99_ms", t.Response.Quantile(0.99)/float64(sim.Millisecond))
	}
	for i := range s.Tenants {
		row(&s.Tenants[i])
	}
	row(&s.All)
	return tb
}

// Summary renders a one-paragraph human-readable digest.
func (s *Stats) Summary() string {
	if s.All.Jobs == 0 {
		return "no jobs completed"
	}
	return fmt.Sprintf("%d jobs, slowdown p50 %.2f p95 %.2f p99 %.2f, util %.1f%%, fairness %.2f",
		s.All.Jobs,
		s.All.Slowdown.Quantile(0.50),
		s.All.Slowdown.Quantile(0.95),
		s.All.Slowdown.Quantile(0.99),
		100*s.MeanUtilization(),
		s.Fairness())
}
