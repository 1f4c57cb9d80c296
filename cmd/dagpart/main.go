// Command dagpart is a stand-alone interface to the multilevel graph
// partitioner (the SCOTCH substitute): it builds a workload's task
// dependency graph (or reads one from JSON), partitions or maps it, prints
// cut/balance statistics, and can export a colored DOT rendering.
//
// -app accepts any workload registry spec (see dagen -list), so synthetic
// generators partition exactly like the paper benchmarks.
//
// Usage:
//
//	dagpart -app qr -scale tiny -parts 8
//	dagpart -app "random-layered?layers=24&width=96" -parts 8
//	dagpart -in graph.json -parts 4 -imbalance 0.03
//	dagpart -app jacobi -map -dot jacobi.dot      # map onto the bullion
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"numadag/internal/apps"
	"numadag/internal/cliutil"
	"numadag/internal/graph"
	"numadag/internal/machine"
	"numadag/internal/partition"
	"numadag/internal/sim"
	"numadag/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes dagpart with the given arguments and returns its exit code:
// 0 on success, 1 when building, partitioning or writing fails, and 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dagpart", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName   = fs.String("app", "", "build the TDG of this workload spec (see dagen -list)")
		scale     = fs.String("scale", "tiny", "problem scale for -app")
		inFile    = fs.String("in", "", "read a DAG from this JSON file instead of -app")
		parts     = fs.Int("parts", 8, "number of parts (with -map: the bullion's socket count, the only accepted value)")
		imbalance = fs.Float64("imbalance", 0.05, "tolerated imbalance")
		seed      = fs.Uint64("seed", 1, "partitioner seed")
		useMap    = fs.Bool("map", false, "map onto the bullion architecture instead of plain k-way")
		noRefine  = fs.Bool("norefine", false, "disable FM refinement")
		dotOut    = fs.String("dot", "", "write colored DOT to this file")
		jsonOut   = fs.String("json", "", "write the DAG as JSON to this file")
		cpuProf   = cliutil.BindCPUProfile(fs)
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dagpart:", err)
		return 1
	}
	if err := cpuProf.Start(); err != nil {
		return fail(err)
	}
	defer func() {
		if err := cpuProf.Stop(); err != nil && code == 0 {
			code = fail(err)
		}
	}()

	// -map always targets every bullion socket, so the part count comes from
	// the architecture; an explicit -parts must agree with it.
	k := *parts
	var arch *partition.Arch
	if *useMap {
		arch = archFrom(machine.BullionS16())
		partsSet := false
		fs.Visit(func(f *flag.Flag) { partsSet = partsSet || f.Name == "parts" })
		if partsSet && k != arch.Sockets() {
			fmt.Fprintf(stderr, "dagpart: -map maps onto the bullion's %d sockets; drop -parts %d or set it to %d\n",
				arch.Sockets(), k, arch.Sockets())
			return 2
		}
		k = arch.Sockets()
	}

	dag, err := loadDAG(*appName, *scale, *inFile)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "graph: %d nodes, %d edges, total node weight %d, total edge weight %d\n",
		dag.Len(), dag.Edges(), dag.TotalNodeWeight(), dag.TotalEdgeWeight())
	if prof, err := dag.ComputeProfile(); err == nil {
		fmt.Fprintf(stdout, "profile: %s\n", prof)
	}

	pg := partition.FromDAG(dag)
	opt := partition.DefaultOptions(k)
	opt.Imbalance = *imbalance
	opt.Seed = *seed
	opt.NoRefine = *noRefine

	var (
		part []int32
		st   partition.Stats
	)
	if arch != nil {
		part, st, err = partition.MapOnto(pg, arch, opt)
		if err == nil {
			fmt.Fprintf(stdout, "mapping onto bullion: comm cost %d\n", partition.CommCost(pg, part, arch.Dist))
		}
	} else {
		part, st, err = partition.Partition(pg, opt)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "parts=%d cut=%d imbalance=%.4f\n", k, st.EdgeCut, st.Imbalance)
	weights := partition.PartWeights(pg, part, k)
	fmt.Fprintf(stdout, "part weights: %v\n", weights)

	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			return fail(err)
		}
		if err := dag.DOT(f, "tdg", part); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "DOT written to %s\n", *dotOut)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(dag, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "JSON written to %s\n", *jsonOut)
	}
	return 0
}

// loadDAG builds from a benchmark or reads from a file.
func loadDAG(appName, scale, inFile string) (*graph.DAG, error) {
	switch {
	case inFile != "":
		d, _, err := workload.LoadDAG(inFile)
		return d, err
	case appName != "":
		sc, err := apps.ParseScale(scale)
		if err != nil {
			return nil, err
		}
		w, err := workload.New(appName, sc)
		if err != nil {
			return nil, err
		}
		r, err := w.Instantiate(machine.BullionS16())
		if err != nil {
			return nil, err
		}
		return r.Graph(), nil
	default:
		return nil, fmt.Errorf("need -app or -in")
	}
}

func archFrom(cfg machine.Config) *partition.Arch {
	m := machine.New(cfg, sim.NewEngine())
	n := cfg.Sockets
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			d[i][j] = m.Hops(i, j)
		}
	}
	return &partition.Arch{Dist: d}
}
