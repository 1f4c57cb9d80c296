package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// A run repeats its set-up at least minSetupPasses times and for at least
// minSetupTime, so that a set-up of a millisecond is sampled as often as one
// of a tenth of a second; setup_s is the median pass. Each pass starts from a
// collected heap, so a pass does not pay for the previous one's garbage.
const (
	minSetupPasses = 7
	minSetupTime   = 500 * time.Millisecond
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env records what a result was measured on.
type env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
}

func hostEnv() env {
	return env{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers}
}

// report is one run's result: the summary line's fields plus the digest and
// environment the orchestrator and the result files keep.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Env       env               `json:"env"`
	Digest    string            `json:"digest"`
	Rounds    int               `json:"rounds"`
	RunsRound int               `json:"runs_per_round"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// roundStat is the host cost of one measured round.
type roundStat struct {
	runs  int
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's maximum resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timed runs one round and measures its wall time, CPU time and bytes
// allocated.
func timed(fn func() (outcome, error)) (roundStat, outcome, error) {
	a0, c0, t0 := totalAlloc(), cpuTime(), time.Now()
	o, err := fn()
	st := roundStat{runs: o.runs, wall: time.Since(t0), cpu: cpuTime() - c0, alloc: totalAlloc() - a0}
	return st, o, err
}

// runOne measures one workload: set-up repeated (see minSetupPasses), one
// untimed reference round, then measured rounds until seconds have passed.
// With trace set the time is split between untraced rounds (the overhead
// base) and traced rounds, and only per-layer metrics are reported. Every
// round must reproduce the reference round's digest.
func runOne(d def, size int, seed uint64, seconds float64, trace bool, profDir string) (*report, error) {
	rep := &report{Workload: d.name, Seed: seed, Trace: trace, Seconds: seconds, Env: hostEnv(),
		Metrics: make(map[string]metric)}
	b := d.make(seed, size)

	var setupS, buildMs, snapMs []float64
	var bl built
	for start := time.Now(); len(setupS) < minSetupPasses || time.Since(start) < minSetupTime; {
		runtime.GC()
		t0 := time.Now()
		var err error
		if bl, err = setup(b); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", d.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		buildMs = append(buildMs, float64(bl.buildNs)/1e6)
		snapMs = append(snapMs, float64(bl.snapNs)/1e6)
	}

	ref, err := b.round()
	if err != nil {
		return nil, fmt.Errorf("%s: reference round: %w", d.name, err)
	}
	rep.Digest = fmt.Sprintf("%016x", ref.digest)
	rep.RunsRound = ref.runs
	rep.Attempted += ref.runs
	check := func(o outcome, err error, what string) bool {
		rep.Attempted += ref.runs
		if err != nil {
			rep.Failed += ref.runs
			rep.problem("%s round failed: %v", what, err)
			return false
		}
		if o.runs != ref.runs || o.digest != ref.digest {
			rep.Failed += ref.runs
			rep.problem("%s round digest %016x over %d runs, reference %016x over %d runs",
				what, o.digest, o.runs, ref.digest, ref.runs)
			return false
		}
		return true
	}

	budget := seconds
	if trace {
		budget = seconds / 2
	}
	var plain []roundStat
	start := time.Now()
	for len(plain) == 0 || time.Since(start).Seconds() < budget {
		st, o, err := timed(b.round)
		if !check(o, err, "untraced") {
			break
		}
		plain = append(plain, st)
	}
	rep.Rounds = len(plain)

	if !trace {
		var rate, cpu, alloc []float64
		for _, st := range plain {
			rate = append(rate, float64(st.runs)/st.wall.Seconds())
			cpu = append(cpu, float64(st.cpu)/1e6/float64(st.runs))
			alloc = append(alloc, float64(st.alloc)/1e6/float64(st.runs))
		}
		rep.set("setup_s", median(setupS), "s")
		rep.set("runs_per_s", median(rate), "1/s")
		rep.set("cpu_ms_per_run", median(cpu), "ms")
		rep.set("alloc_mb_per_run", median(alloc), "MB")
		rep.set("peak_rss_mb", peakRSS()/1e6, "MB")
		rep.set("sim_ms_geomean", ref.simGeomean(), "ms")
		rep.finish()
		return rep, nil
	}

	if profDir != "" {
		if err := os.MkdirAll(profDir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(profDir, d.name+".pprof"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	lt := &layers{}
	var tracedWall []float64
	start = time.Now()
	for len(tracedWall) == 0 || time.Since(start).Seconds() < budget {
		o, err := b.traced(lt)
		if !check(o, err, "traced") {
			break
		}
		tracedWall = append(tracedWall, o.wall.Seconds())
		rep.Rounds++
	}
	plainWall := make([]float64, len(plain))
	for i, st := range plain {
		plainWall[i] = st.wall.Seconds()
	}
	specs, _, _ := b.specs()
	rep.setLayers(lt, len(specs), bl.tasks, median(buildMs), median(snapMs))
	rep.set("trace.overhead_pct", 100*(median(tracedWall)/median(plainWall)-1), "%")
	rep.finish()
	return rep, nil
}

// finish marks the report correct when nothing failed. A metric that is not
// finite (no round completed) is a failure, and reads 0 so the report can
// still be printed as JSON.
func (r *report) finish() {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("metric %s is not finite", name)
			r.Metrics[name] = metric{Unit: m.Unit}
		}
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
}

// setLayers derives the per-layer metrics from what the traced rounds
// recorded. Times are per cell (batch) or per round (fleet stages), counts
// are per round.
func (r *report) setLayers(lt *layers, specs, tasks int, buildMs, snapMs float64) {
	n := float64(lt.rounds)
	c := lt.c
	cells := float64(len(lt.cellNs))
	perCell := func(ns int64) float64 {
		if cells == 0 {
			return 0
		}
		return float64(ns) / cells / 1e6
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.set("workload.build_ms", buildMs, "ms")
	r.set("workload.snap_ms", snapMs, "ms")
	r.set("workload.specs", float64(specs), "count")
	r.set("workload.tasks", float64(tasks), "count")

	r.set("rt.install_us_p50", quantile(lt.installNs, 0.5)/1e3, "us")
	r.set("rt.installs", ratio(float64(len(lt.installNs)), n), "count")
	r.set("rt.run_ms", perCell(lt.runNs), "ms")
	r.set("rt.tasks", float64(c.tasks), "count")
	r.set("rt.steals", float64(c.steals), "count")
	r.set("rt.deferred", float64(c.deferred), "count")
	r.set("rt.remote_ratio", ratio(float64(c.remoteBytes), float64(c.localBytes+c.remoteBytes)), "ratio")
	r.set("rt.audit_ms", perCell(lt.auditNs), "ms")

	r.set("policy.prepare_ms", perCell(lt.prepareNs), "ms")
	r.set("policy.pick_calls", float64(c.picks), "count")
	r.set("policy.pick_ns_mean", ratio(float64(lt.pickNs), float64(c.picks)*n), "ns")
	r.set("partition.windows", float64(c.windows), "count")
	r.set("partition.cut_bytes", float64(c.cutBytes), "B")

	r.set("sim.events", float64(c.events), "count")
	r.set("sim.flows", float64(c.flows), "count")
	r.set("sim.flushes", float64(c.flushes), "count")
	r.set("sim.bytes_moved", c.bytesMoved, "B")
	engineNs := lt.runNs
	if cells == 0 {
		engineNs = lt.loopNs
	}
	r.set("sim.ns_per_event", ratio(float64(engineNs), float64(c.events)*n), "ns")

	var cellSum int64
	for _, ns := range lt.cellNs {
		cellSum += ns
	}
	r.set("core.cell_ms_p50", quantile(lt.cellNs, 0.5)/1e6, "ms")
	r.set("core.cell_ms_p95", quantile(lt.cellNs, 0.95)/1e6, "ms")
	r.set("core.pool_efficiency", ratio(float64(cellSum), float64(lt.roundNs)*workers), "ratio")
	r.set("core.cache_hit_ratio", ratio(float64(c.runs-c.builds), float64(c.runs)), "ratio")
	r.set("core.sink_us_mean", ratio(float64(lt.sinkNs), float64(lt.sinkCalls))/1e3, "us")
	r.set("core.sim_speedup_geomean", c.speedupGeomean, "x")

	r.set("cluster.arrivals_ms", ratio(float64(lt.arrivalsNs), n)/1e6, "ms")
	r.set("cluster.ideal_ms", ratio(float64(lt.idealNs), n)/1e6, "ms")
	r.set("cluster.prebuild_ms", ratio(float64(lt.prebuildNs), n)/1e6, "ms")
	r.set("cluster.dispatch_ns", ratio(float64(lt.dispatchNs), float64(c.runs)*n), "ns")
	r.set("cluster.loop_ms", ratio(float64(lt.loopNs), n)/1e6, "ms")
	r.set("cluster.max_queue", float64(c.maxQueue), "count")
	r.set("cluster.utilization", c.utilization, "ratio")
	r.set("cluster.sim_p99_response_ms", c.p99RespSim, "ms")

	attributed := 100.0
	if cells > 0 {
		named := lt.buildNs + lt.prepareNs + lt.runNs + lt.auditNs
		for _, ns := range lt.installNs {
			named += ns
		}
		attributed = 100 * ratio(float64(named), float64(cellSum))
	}
	r.set("trace.attributed_pct", attributed, "%")
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of a sample of durations.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// exclusive method), so spreads read the same as in Python.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}
