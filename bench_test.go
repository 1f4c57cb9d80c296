// Benchmarks for the host-side cost of the evaluation's layers.
//
// The paper's Figure-1 grid and the ablation sweeps run end to end in the
// benchmark/ harness (fig1-paper, rgp-repartition, fleet-16, cold-sweep),
// and each small-scale Figure-1 and socket-ablation cell's steady-state
// allocation count is gated by internal/core's
// TestPlainCellSteadyStateAllocs (make test-allocs). What stays here:
//
//	BenchmarkAblationPartitioner/...  A2: partitioner quality on app TDGs
//	BenchmarkMultiSeedSweep/cached    a replicated grid on the TDG cache
//	BenchmarkPartitionerScaling/...   partitioner cost on growing grids
//	BenchmarkDagpart/...              cmd/dagpart's partition + mapping flow
package numadag_test

import (
	"context"
	"fmt"
	"testing"

	"numadag"
	"numadag/internal/apps"
	"numadag/internal/core"
	"numadag/internal/machine"
	"numadag/internal/partition"
	"numadag/internal/rt"
	"numadag/internal/workload"
)

// BenchmarkAblationPartitioner measures partitioner quality (edge cut, as
// "cut-bytes") on real app TDGs under the pipeline ablations (A2). This is
// a pure partitioner benchmark: wall-clock ns/op is the partitioning cost.
func BenchmarkAblationPartitioner(b *testing.B) {
	for _, appName := range []string{"jacobi", "qr", "cg"} {
		app, err := apps.ByName(appName, apps.Small)
		if err != nil {
			b.Fatal(err)
		}
		m := numadag.NewMachine(machine.BullionS16(), numadag.NewEngine())
		r := rt.NewRuntime(m, benchPolicy{}, rt.Options{})
		app.Build(r)
		pg := partition.FromDAG(r.Graph())
		variants := []struct {
			name string
			mut  func(*partition.Options)
		}{
			{"full", func(*partition.Options) {}},
			{"random-match", func(o *partition.Options) { o.Matching = partition.RandomMatching }},
			{"no-refine", func(o *partition.Options) { o.NoRefine = true }},
			{"random-init", func(o *partition.Options) { o.Initial = partition.RandomInit }},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%s", appName, v.name), func(b *testing.B) {
				var cut int64
				for i := 0; i < b.N; i++ {
					opt := partition.DefaultOptions(8)
					opt.Seed = uint64(i + 1)
					v.mut(&opt)
					_, st, err := partition.Partition(pg, opt)
					if err != nil {
						b.Fatal(err)
					}
					cut = st.EdgeCut
				}
				b.ReportMetric(float64(cut), "cut-bytes")
			})
		}
	}
}

// BenchmarkMultiSeedSweep measures a replicated experiment grid — the
// paper-scale sweep pattern (one workload x policy cell averaged over many
// seeds), where each workload's task graph is generated once per
// (workload, machine) and installed into every replicate. The sub-benchmark
// keeps its name, "cached", so the row's allocs/op trajectory continues.
func BenchmarkMultiSeedSweep(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts := rt.DefaultOptions()
			opts.Seed = uint64(i + 1)
			e := &core.Experiment{
				Apps:     []string{"jacobi", "qr"},
				Policies: []string{"LAS"},
				Scale:    apps.Small,
				Runtime:  opts,
				Seeds:    8,
			}
			if err := e.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPartitionerScaling measures the multilevel partitioner's
// wall-clock cost on growing grids (infrastructure, not a paper figure).
func BenchmarkPartitionerScaling(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		g := partition.NewGraph(n * n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := i*n + j
				g.SetVertexWeight(v, 1)
				if i+1 < n {
					g.AddEdge(v, (i+1)*n+j, 64)
				}
				if j+1 < n {
					g.AddEdge(v, i*n+j+1, 64)
				}
			}
		}
		b.Run(fmt.Sprintf("grid%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := partition.DefaultOptions(8)
				opt.Seed = uint64(i + 1)
				if _, _, err := partition.Partition(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDagpart measures the stand-alone partitioner flow cmd/dagpart
// performs — workload TDG -> symmetrized graph -> k-way partition and
// bullion static mapping — on a partitioner-heavy app and a synthetic
// layered DAG. allocs/op tracks the per-call overhead that remains outside
// the refiner's reused scratch (subgraph extraction and coarsening).
func BenchmarkDagpart(b *testing.B) {
	for _, spec := range []string{"qr", "random-layered?layers=24&width=96"} {
		w, err := workload.New(spec, apps.Small)
		if err != nil {
			b.Fatal(err)
		}
		m := numadag.NewMachine(machine.BullionS16(), numadag.NewEngine())
		r := rt.NewRuntime(m, benchPolicy{}, rt.Options{})
		if err := w.Build(r); err != nil {
			b.Fatal(err)
		}
		pg := partition.FromDAG(r.Graph())
		for _, mode := range []string{"kway", "map"} {
			b.Run(fmt.Sprintf("%s/%s", spec, mode), func(b *testing.B) {
				b.ReportAllocs()
				arch := partition.NewUniformArch(8)
				var cut int64
				for i := 0; i < b.N; i++ {
					opt := partition.DefaultOptions(8)
					opt.Seed = uint64(i + 1)
					var st partition.Stats
					var err error
					if mode == "map" {
						_, st, err = partition.MapOnto(pg, arch, opt)
					} else {
						_, st, err = partition.Partition(pg, opt)
					}
					if err != nil {
						b.Fatal(err)
					}
					cut = st.EdgeCut
				}
				b.ReportMetric(float64(cut), "cut-bytes")
			})
		}
	}
}

type benchPolicy struct{}

func (benchPolicy) Name() string                         { return "bench" }
func (benchPolicy) PickSocket(*rt.Runtime, *rt.Task) int { return 0 }
