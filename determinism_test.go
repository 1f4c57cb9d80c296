// Determinism / equivalence suite for the simulator hot path.
//
// Every app x policy combination — plus a pinned set of synthetic workload
// specs — runs at ScaleSmall for three seeds and the triple (Makespan,
// Engine.Steps, Net.TotalBytes) is checked against a golden file. The
// makespan and byte totals pin down the *simulated physics* — any change to
// the fluid-network allocation or event ordering that alters them is a
// behaviour change, not an optimisation. The step count pins down the event
// structure itself, so even a silent re-ordering of same-instant events
// shows up. For the synthetic generators the goldens additionally pin the
// generator's seeding: a drift in their RNG consumption shows up as a
// different graph and therefore different totals.
//
// Regenerate the goldens (only when a behaviour change is intended) with:
//
//	go test -run TestDeterminismGolden -update-golden
package numadag_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"numadag"
	"numadag/internal/apps"
	"numadag/internal/cluster"
	"numadag/internal/machine"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/trace"
	"numadag/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/determinism.json")

// goldenEntry is one (app, policy, seed) cell of the golden table. Cluster
// cells additionally pin the completion stream digest; single-run cells
// leave it zero (omitted from the JSON, keeping their serialized form
// unchanged).
type goldenEntry struct {
	Makespan       int64   `json:"makespan_ns"`
	Steps          uint64  `json:"engine_steps"`
	TotalBytes     float64 `json:"total_bytes"`
	CompletionHash uint64  `json:"completion_hash,omitempty"`
}

const goldenPath = "testdata/determinism.json"

// determinismPolicies are the scheduling configurations pinned by the suite:
// the four Figure-1 policies plus the repartitioning RGP variant.
var determinismPolicies = []string{"LAS", "DFIFO", "RGP+LAS", "EP", "RGP"}

// determinismSynthetics pins the synthetic workload generators' seeding:
// one spec per generator family, sized well under the app benchmarks so the
// added cells stay cheap.
var determinismSynthetics = []string{
	"random-layered?layers=10&width=24&fan=2&seed=7",
	"forkjoin?depth=5&fanout=3&seed=7",
	"file?path=testdata/dags/diamond.json",
	// Partitioner-stressing cells: sized past the 2048-task window so RGP
	// policies run deep multilevel FM passes (many coarsening levels, full
	// refinement at each). These pin the partitioner's move sequences
	// independently of the eight paper apps, whose windows are smaller.
	"random-layered?layers=24&width=96&cv=0.4&seed=11",
	"forkjoin?depth=9&fanout=2&seed=11",
}

func runCell(t testing.TB, spec, polName string, seed uint64) goldenEntry {
	return runGoldenCell(t, spec, polName, seed, nil)
}

// runGoldenCell runs one golden cell at small scale on a fresh bullion,
// recording it into tr when tr is non-nil, and checks the run against
// physics before returning its golden triple (see checkPhysics).
func runGoldenCell(t testing.TB, spec, polName string, seed uint64, tr *trace.Tracer) goldenEntry {
	t.Helper()
	w, err := workload.New(spec, apps.Small)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.New(polName)
	if err != nil {
		t.Fatal(err)
	}
	eng := numadag.NewEngine()
	m := numadag.NewMachine(machine.BullionS16(), eng)
	opts := rt.DefaultOptions()
	opts.Seed = seed
	if tr != nil {
		opts.Observer = tr.AttachMachine(m, 0, spec)
	}
	over := watchCapacity(m)
	r := rt.NewRuntime(m, pol, opts)
	if err := w.Build(r); err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	checkPhysics(t, cellKey(spec, polName, seed), r, res, *over)
	return goldenEntry{
		Makespan:   int64(res.Makespan),
		Steps:      eng.Steps(),
		TotalBytes: m.Net().TotalBytes,
	}
}

// capacityTol is the relative amount by which a settled resource rate may
// exceed its capacity. A settled rate is the float sum of its flows' shares,
// and each share comes out of a chain of residual subtractions and a
// division, every one rounding by half an ulp (1.1e-16 relative): the sum
// can land a few ulps above the capacity it exactly fills. The golden cells
// reach 1.6e-15 relative; 1e-12 is the fill's own tie tolerance, far above
// rounding and far below a real overcommit.
const capacityTol = 1e-12

// capacityExcess is the worst overcommit a capacity watch saw.
type capacityExcess struct {
	rel  float64 // settled rate / capacity - 1
	name string
	at   sim.Time
}

// watchCapacity records, after every end-of-instant flush of m's engine,
// the worst amount by which a memory controller or port settles above its
// capacity.
func watchCapacity(m *machine.Machine) *capacityExcess {
	worst := &capacityExcess{}
	check := func(rs []*sim.Resource) {
		for _, r := range rs {
			if rel := r.Rate()/r.Capacity() - 1; rel > worst.rel {
				*worst = capacityExcess{rel, r.Name(), m.Engine().Now()}
			}
		}
	}
	m.Engine().AddFlusher(func() {
		check(m.Controllers())
		check(m.Ports())
	})
	return worst
}

// checkPhysics checks a finished golden cell against physics rather than
// against the goldens: the schedule passes the audit (dependences respected,
// cores exclusive), no resource settled above its capacity, and bytes are
// conserved — the runtime's local and remote bytes, the bytes the network
// completed and the bytes the tasks' accesses name (a read-write access
// moves its region twice, once in and once out) all agree.
func checkPhysics(t testing.TB, cell string, r *rt.Runtime, res rt.Result, over capacityExcess) {
	t.Helper()
	if err := r.AuditSchedule(); err != nil {
		t.Errorf("%s: %v", cell, err)
	}
	if over.rel > capacityTol {
		t.Errorf("%s: %s settled %.3g above its capacity (relative) at %v", cell, over.name, over.rel, over.at)
	}
	var named int64
	for _, task := range r.Tasks() {
		for _, a := range task.Accesses {
			if a.Mode.Reads() {
				named += a.Region.Bytes()
			}
			if a.Mode.Writes() {
				named += a.Region.Bytes()
			}
		}
	}
	moved := res.LocalBytes + res.RemoteBytes
	if net := r.Machine().Net().TotalBytes; float64(moved) != net || moved != named {
		t.Errorf("%s: bytes not conserved: runtime moved %d, network completed %.0f, accesses name %d",
			cell, moved, net, named)
	}
}

func cellKey(app, pol string, seed uint64) string {
	return fmt.Sprintf("%s/%s/seed%d", app, pol, seed)
}

// clusterGoldenConfig is the pinned service-mode scenario: a four-machine
// fleet, three tenants covering all arrival processes, heterogeneous job
// shapes including zero-task jobs, audited. Small enough to stay cheap,
// busy enough that dispatch order, queueing and same-instant bursts all
// influence the completion stream.
func clusterGoldenConfig(dispatcher string, seed uint64) cluster.Config {
	return cluster.Config{
		Machines: 4,
		Machine:  machine.TwoSocketXeon(),
		Policy:   "LAS",
		Runtime:  rt.DefaultOptions(),
		Scale:    apps.Tiny,
		Tenants: []cluster.Tenant{
			{Name: "batch", Specs: []string{"forkjoin?depth=2&fanout=2", "random-layered?layers=3&width=4"},
				Process: "poisson", Rate: 2000},
			{Name: "interactive", Specs: []string{"noop?tasks=4&flops=4096"}, Process: "diurnal",
				Rate: 3000, Amplitude: 0.5, Period: 200 * sim.Millisecond},
			{Name: "cron", Specs: []string{"noop?tasks=0"}, Process: "trace",
				Trace: []sim.Time{0, 0, sim.Millisecond}},
		},
		Jobs:       60,
		Seed:       seed,
		Dispatcher: dispatcher,
		Audit:      true,
	}
}

func runClusterCell(t testing.TB, dispatcher string, seed uint64) goldenEntry {
	res, err := cluster.Run(clusterGoldenConfig(dispatcher, seed))
	if err != nil {
		t.Fatal(err)
	}
	return goldenEntry{
		Makespan:       int64(res.Makespan),
		Steps:          res.Steps,
		TotalBytes:     res.TotalBytes,
		CompletionHash: res.CompletionHash(),
	}
}

func TestDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not short")
	}
	got := make(map[string]goldenEntry)
	for _, app := range append(apps.Names(), determinismSynthetics...) {
		for _, pol := range determinismPolicies {
			for seed := uint64(1); seed <= 3; seed++ {
				got[cellKey(app, pol, seed)] = runCell(t, app, pol, seed)
			}
		}
	}
	// Service-mode cells: the completion-stream digest pins arrival
	// generation, dispatch decisions and shared-clock interleaving for both
	// dispatcher families.
	for _, disp := range []string{"kchoices?d=2", "idle"} {
		for seed := uint64(1); seed <= 3; seed++ {
			got[cellKey("cluster", disp, seed)] = runClusterCell(t, disp, seed)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, run produced %d", len(want), len(got))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: missing from run", k)
			continue
		}
		if g != w {
			t.Errorf("%s: got {makespan %d, steps %d, bytes %.0f}, want {makespan %d, steps %d, bytes %.0f}",
				k, g.Makespan, g.Steps, g.TotalBytes, w.Makespan, w.Steps, w.TotalBytes)
		}
	}
}

// TestDeterminismRepeatable double-runs a representative subset in-process and
// demands bit-identical results — catches nondeterminism that a golden file
// (generated once) cannot, e.g. map-iteration order leaking into allocation.
func TestDeterminismRepeatable(t *testing.T) {
	for _, app := range []string{"jacobi", "qr", "nstream", "random-layered?layers=8&width=16&seed=5"} {
		for _, pol := range []string{"LAS", "RGP+LAS"} {
			a := runCell(t, app, pol, 7)
			b := runCell(t, app, pol, 7)
			if a != b {
				t.Errorf("%s/%s: two identical runs diverged: %+v vs %+v", app, pol, a, b)
			}
		}
	}
	for _, disp := range []string{"kchoices?d=2", "idle"} {
		a := runClusterCell(t, disp, 7)
		b := runClusterCell(t, disp, 7)
		if a != b {
			t.Errorf("cluster/%s: two identical runs diverged: %+v vs %+v", disp, a, b)
		}
	}
}
