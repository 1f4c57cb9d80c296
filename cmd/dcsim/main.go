// Command dcsim runs the simulator in online multi-tenant service mode: an
// open-loop arrival process submits DAG jobs from several tenants to a
// fleet of NUMA machines sharing one simulated clock, a dispatcher places
// each job, and the run reports tail-latency slowdowns against the IdealDC
// fluid model, per-tenant fairness and cluster utilization.
//
// Usage:
//
//	dcsim -machines 8 -jobs 500
//	dcsim -dispatcher idle -policy RGP+LAS -seed 7
//	dcsim -tenants "web:poisson:4000:noop?tasks=4,hpc:diurnal:500:forkjoin?depth=5" -jobs 1000
//	dcsim -machines 16 -machine bullion -jsonl jobs.jsonl
//	dcsim -trace run.json            # Chrome trace (load in Perfetto)
//
// The -tenants grammar is comma-separated tenant declarations of the form
//
//	name:process:rate:spec[|spec...]
//
// where process is poisson or diurnal and rate is jobs per simulated
// second. Omitting -tenants uses a four-tenant default mix whose total
// arrival rate is set by -rate. Workload specs are the same registry specs
// every other command accepts (see cmd/dagen -list).
//
// -dispatcher takes a spec in the same "name?key=value" grammar:
// "kchoices?d=K" samples K machines per job and places it on the least
// loaded (1 <= K <= 1024, cluster.MaxChoices; bare "kchoices" is d=2), and
// "idle" places every job on the least-loaded machine overall.
//
// A fixed -seed makes the whole run — arrivals, dispatch, scheduling —
// bit-identical across repeats and across -procs values; -procs only fans
// out the one-time task-graph prebuilds. A run at the default sizes lasts
// milliseconds (a 200,000-job run about 2 s on two cores); its outputs are
// the summary table printed at the end, the per-job -jsonl/-csv streams and
// the -trace file.
package main

import (
	"flag"
	"fmt"
	"os"

	"numadag/internal/cliutil"
	"numadag/internal/cluster"
	"numadag/internal/rt"
)

func main() {
	var (
		machines = flag.Int("machines", 8, "fleet size")
		machF    = cliutil.MachineFlag(flag.CommandLine, "2socket")
		policyF  = flag.String("policy", "LAS", "per-job scheduling policy spec")
		dispF    = flag.String("dispatcher", "kchoices?d=2", fmt.Sprintf("dispatcher spec (kchoices?d=K with 1 <= K <= %d, idle)", cluster.MaxChoices))
		scale    = cliutil.ScaleFlag(flag.CommandLine, "tiny")
		jobs     = flag.Int("jobs", 500, "arrival stream length")
		seed     = flag.Uint64("seed", 1, "base seed (tenants, dispatch, per-job runtimes)")
		procs    = flag.Int("procs", 1, "task-graph prebuild workers (never affects results)")
		rate     = flag.Float64("rate", 7000, "total arrival rate for the default tenant mix, jobs/s")
		tenantsF = flag.String("tenants", "", "tenant declarations: name:process:rate:spec|spec,...")
		outputs  = cliutil.BindOutputs(flag.CommandLine, true)
		audit    = flag.Bool("audit", false, "audit every job's schedule against TDG semantics")
		traceOut = cliutil.BindTrace(flag.CommandLine)
		cpuProf  = cliutil.BindCPUProfile(flag.CommandLine)
	)
	flag.Parse()
	if err := cpuProf.Start(); err != nil {
		fatal(err)
	}

	sc, err := scale()
	if err != nil {
		fatal(err)
	}
	mc, err := machF()
	if err != nil {
		fatal(err)
	}
	tenants, err := cluster.ParseTenants(*tenantsF, *rate)
	if err != nil {
		fatal(err)
	}

	cfg := cluster.Config{
		Machines:   *machines,
		Machine:    mc,
		Policy:     *policyF,
		Runtime:    rt.DefaultOptions(),
		Scale:      sc,
		Tenants:    tenants,
		Jobs:       *jobs,
		Seed:       *seed,
		Dispatcher: *dispF,
		Procs:      *procs,
		Audit:      *audit,
	}
	cfg.Trace = traceOut.Enable(false)

	sinks, err := outputs.Sinks()
	if err != nil {
		fatal(err)
	}
	defer outputs.Close()

	res, err := cluster.Run(cfg, sinks...)
	if err != nil {
		fatal(err)
	}
	if err := cpuProf.Stop(); err != nil {
		fatal(err)
	}
	if err := traceOut.Write(); err != nil {
		fatal(err)
	}
	if err := res.Stats.SummaryTable().Write(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s\n", res.Stats.Summary())
	fmt.Printf("makespan %v, %d engine steps, %.0f bytes moved, completion hash %016x\n",
		res.Makespan, res.Steps, res.TotalBytes, res.CompletionHash())
}

func fatal(err error) {
	cliutil.Fatal("dcsim", err)
}
