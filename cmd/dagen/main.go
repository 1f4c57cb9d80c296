// Command dagen is the workload generator's front door: it lists and
// describes the registered task-graph generators, resolves workload specs,
// prints graph statistics, and exports generated DAGs as JSON (re-importable
// via "file?path=...") or Graphviz DOT. To run a workload spec under a
// policy, use rgpsim -app with the same spec.
//
// Usage:
//
//	dagen -list                                      # registered workloads
//	dagen -describe random-layered                   # one generator's doc
//	dagen -spec "random-layered?layers=24&width=96"  # graph statistics
//	dagen -spec "forkjoin?depth=6&fanout=3" -json t.json -dot t.dot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"numadag/internal/cliutil"
	"numadag/internal/workload"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list registered workloads and exit")
		describe = flag.String("describe", "", "print one workload's documentation and exit")
		spec     = flag.String("spec", "", "workload spec to generate, e.g. \"forkjoin?depth=6&fanout=3\"")
		scale    = cliutil.ScaleFlag(flag.CommandLine, "small")
		machF    = cliutil.MachineFlag(flag.CommandLine, "bullion")
		jsonOut  = flag.String("json", "", "export the generated DAG as JSON to this file")
		dotOut   = flag.String("dot", "", "export the generated DAG as Graphviz DOT to this file")
	)
	flag.Parse()

	switch {
	case *list:
		for _, n := range workload.Names() {
			doc, _ := workload.Doc(n)
			fmt.Printf("%-16s %s\n", n, doc)
		}
		return
	case *describe != "":
		doc, err := workload.Doc(*describe)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %s\n", *describe, doc)
		fmt.Println("reserved parameters: scale=tiny|small|paper, seed=N (generator seed)")
		return
	case *spec == "":
		fatal(fmt.Errorf("need -spec, -list or -describe (see -h)"))
	}

	sc, err := scale()
	if err != nil {
		fatal(err)
	}
	mach, err := machF()
	if err != nil {
		fatal(err)
	}
	w, err := workload.New(*spec, sc)
	if err != nil {
		fatal(err)
	}
	r, err := w.Instantiate(mach)
	if err != nil {
		fatal(err)
	}
	dag := r.Graph()
	fmt.Printf("workload %s (scale %s, seed %d)\n", w.Spec, w.Scale, w.Seed)
	fmt.Printf("graph: %d nodes, %d edges, total node weight %d, total edge weight %d\n",
		dag.Len(), dag.Edges(), dag.TotalNodeWeight(), dag.TotalEdgeWeight())
	if prof, err := dag.ComputeProfile(); err == nil {
		fmt.Printf("profile: %s\n", prof)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(dag, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("JSON written to %s (re-import with -spec \"file?path=%s\")\n", *jsonOut, *jsonOut)
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fatal(err)
		}
		if err := dag.DOT(f, w.Name, nil); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("DOT written to %s\n", *dotOut)
	}
}

func fatal(err error) {
	cliutil.Fatal("dagen", err)
}
