// Servicemode: run the cluster simulator in online multi-tenant mode and
// compare the two dispatchers' tail latencies under the same arrival
// stream.
//
//	go run ./examples/servicemode
//
// Two tenants share an eight-machine fleet: an interactive tenant
// submitting small independent-task jobs at a diurnally modulated rate, and
// a batch tenant submitting fork-join DAGs at a steady Poisson rate. Every
// job runs the RGP+LAS policy on its machine; the dispatchers differ only
// in placement. Slowdowns are normalized against the IdealDC fluid model
// (aggregate fleet capacity, egalitarian sharing), so a slowdown of k means
// the job took k times its capacity-only lower bound.
//
// The second run also demonstrates observability: a Tracer records every
// task, transfer, flow and job as a Chrome trace (servicemode.json, load in
// Perfetto), next to the run's final statistics. Tracing never perturbs the
// simulation — both runs see the identical arrival stream and schedule.
package main

import (
	"fmt"
	"log"
	"os"

	"numadag"
)

func main() {
	tenants := []numadag.ClusterTenant{
		{Name: "interactive", Specs: []string{"noop?tasks=4&flops=4096"},
			Process: "diurnal", Rate: 4000, Amplitude: 0.6, Period: 200 * numadag.Time(1e6)},
		{Name: "batch", Specs: []string{"forkjoin?depth=3&fanout=2"},
			Process: "poisson", Rate: 1000},
	}

	for _, disp := range []string{"kchoices?d=2", "idle"} {
		cfg := numadag.ClusterConfig{
			Machines:   8,
			Machine:    numadag.TwoSocketXeon(),
			Policy:     "RGP+LAS",
			Runtime:    numadag.DefaultRuntimeOptions(),
			Scale:      numadag.ScaleTiny,
			Tenants:    tenants,
			Jobs:       600,
			Seed:       1,
			Dispatcher: disp,
		}
		if disp == "idle" {
			// Trace the second run end to end (dcsim -trace does the same).
			cfg.Trace = numadag.NewTracer()
		}
		res, err := numadag.RunCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dispatcher %s — %s\n", disp, res.Stats.Summary())
		if err := res.Stats.SummaryTable().Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if cfg.Trace != nil {
			if err := cfg.Trace.WriteFile("servicemode.json"); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("traced run: %d spans -> servicemode.json (load in Perfetto); %d jobs done, utilization %.2f\n\n",
				cfg.Trace.Spans(), res.Stats.All.Jobs, res.Stats.MeanUtilization())
		}
	}
	fmt.Println("command-line driver with the same knobs: go run ./cmd/dcsim -h")
}
