// Customworkload: register a new task-graph generator against the public
// workload registry and sweep it — by spec string — through the paper's
// policies, exactly like a built-in benchmark.
//
// The example generator, "wavefront", builds the classic 2D wavefront
// dependence pattern (each tile waits on its north and west neighbors —
// dynamic programming, Smith-Waterman, LU-style sweeps). Once registered,
// "wavefront?n=24" is a first-class workload spec: Run, Experiment grids
// and the CLIs all resolve it, an experiment builds its graph once per
// machine no matter how many seeds race over it, and every run goes
// through the audited path.
//
//	go run ./examples/customworkload
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"numadag"
)

func init() {
	numadag.MustRegisterWorkload("wavefront",
		"2D wavefront over an n x n tile grid [n, tile, flops]",
		func(s numadag.WorkloadSpec, scale numadag.Scale, seed uint64) (numadag.Workload, error) {
			if err := s.Only("n", "tile", "flops"); err != nil {
				return numadag.Workload{}, err
			}
			// Scale-aware default, overridable by n=.
			def := map[numadag.Scale]int{numadag.ScaleTiny: 6, numadag.ScaleSmall: 16, numadag.ScalePaper: 48}[scale]
			n, err := s.Int("n", def)
			if err != nil {
				return numadag.Workload{}, err
			}
			tile, err := s.Bytes("tile", 64<<10)
			if err != nil {
				return numadag.Workload{}, err
			}
			flops, err := s.Float("flops", 32*1024)
			if err != nil {
				return numadag.Workload{}, err
			}
			if n < 2 || tile <= 0 || flops <= 0 {
				return numadag.Workload{}, fmt.Errorf("wavefront: invalid parameters (n=%d tile=%d flops=%g)", n, tile, flops)
			}
			build := func(r *numadag.Runtime) error {
				cells := make([][]*numadag.Region, n)
				for i := range cells {
					cells[i] = make([]*numadag.Region, n)
					for j := range cells[i] {
						cells[i][j] = r.Mem().Alloc(fmt.Sprintf("c[%d][%d]", i, j), tile, numadag.Deferred, 0)
					}
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						acc := []numadag.Access{{Region: cells[i][j], Mode: numadag.Out}}
						if i > 0 {
							acc = append(acc, numadag.Access{Region: cells[i-1][j], Mode: numadag.In})
						}
						if j > 0 {
							acc = append(acc, numadag.Access{Region: cells[i][j-1], Mode: numadag.In})
						}
						r.Submit(numadag.TaskSpec{
							Label:    fmt.Sprintf("wf(%d,%d)", i, j),
							Flops:    flops,
							Accesses: acc,
							EPSocket: numadag.NoEPHint,
						})
					}
				}
				return nil
			}
			return numadag.Workload{Build: build}, nil
		})
}

func main() {
	fmt.Println("custom workload \"wavefront\" vs a built-in and a synthetic, 3 seeds each")
	fmt.Println("(each workload's TDG is built once and shared across all its cells)")
	fmt.Println()

	e := &numadag.Experiment{
		Name: "customworkload",
		Apps: []string{
			"wavefront?n=20",
			"jacobi",
			"random-layered?layers=12&width=24&seed=9",
		},
		Policies: []string{"LAS", "DFIFO", "RGP+LAS"},
		Scale:    numadag.ScaleSmall,
		Seeds:    3,
	}
	table := numadag.NewTableSink(numadag.TableOptions{
		Title:    "makespan speedup over LAS",
		Norm:     numadag.NormSpeedup,
		Baseline: func(c numadag.Cell) bool { return c.Policy == "LAS" },
		Geomean:  true,
	})
	if err := e.Run(context.Background(), table); err != nil {
		log.Fatal(err)
	}
	if err := table.Table().Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
