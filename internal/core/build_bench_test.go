package core

import (
	"fmt"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/workload"
)

// coldSweepSpecs returns the 48 distinct random layered specs of the
// benchmark's cold-sweep workload (seeds 1000..1047): every graph is built
// and snapshotted once, so construction is not amortised across cells.
func coldSweepSpecs() []string {
	specs := make([]string, 48)
	for k := range specs {
		specs[k] = fmt.Sprintf("random-layered?layers=32&width=64&seed=%d", 1000+k)
	}
	return specs
}

// BenchmarkBuildSnapshot measures cold task-graph construction: one op
// resolves, builds (rt.Submit's dependence derivation on a pooled
// prototype runtime) and snapshots every spec of a row once, through the
// same Workload.Snapshot the experiment's pool calls. Rows: the eight paper
// apps and the cold-sweep specs, both at paper scale on the bullion.
func BenchmarkBuildSnapshot(b *testing.B) {
	mc := machine.BullionS16()
	for _, row := range []struct {
		name  string
		specs []string
	}{
		{"paper-apps", apps.Names()},
		{"cold-sweep", coldSweepSpecs()},
	} {
		ws := make([]workload.Workload, len(row.specs))
		for i, spec := range row.specs {
			w, err := workload.New(spec, apps.Paper)
			if err != nil {
				b.Fatal(err)
			}
			ws[i] = w
		}
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, w := range ws {
					if _, err := w.Snapshot(mc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
