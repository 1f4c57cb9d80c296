package numadag_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"numadag"
)

func TestFacadeQuickstartWorkflow(t *testing.T) {
	cfg := numadag.DefaultConfig("jacobi", "RGP+LAS", numadag.ScaleTiny)
	res, err := numadag.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Makespan <= 0 {
		t.Fatal("zero makespan through facade")
	}
	if res.Stats.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestFacadeCustomApp(t *testing.T) {
	eng := numadag.NewEngine()
	m := numadag.NewMachine(numadag.TwoSocketXeon(), eng)
	pol, err := numadag.NewPolicy("LAS")
	if err != nil {
		t.Fatal(err)
	}
	r := numadag.NewRuntime(m, pol, numadag.DefaultRuntimeOptions())
	a := r.Mem().Alloc("a", 64<<10, numadag.Deferred, 0)
	b := r.Mem().Alloc("b", 64<<10, numadag.Deferred, 0)
	r.Submit(numadag.TaskSpec{Label: "produce", Flops: 1000,
		Accesses: []numadag.Access{{Region: a, Mode: numadag.Out}},
		EPSocket: numadag.NoEPHint})
	r.Submit(numadag.TaskSpec{Label: "transform", Flops: 2000,
		Accesses: []numadag.Access{{Region: a, Mode: numadag.In}, {Region: b, Mode: numadag.Out}},
		EPSocket: numadag.NoEPHint})
	res := r.Run()
	if res.TasksRun != 2 {
		t.Fatalf("ran %d tasks", res.TasksRun)
	}
}

func TestFacadePartitioner(t *testing.T) {
	g := numadag.NewPGraph(6)
	for v := 0; v < 6; v++ {
		g.SetVertexWeight(v, 1)
	}
	// Two triangles joined by one edge.
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 10)
	g.AddEdge(0, 2, 10)
	g.AddEdge(3, 4, 10)
	g.AddEdge(4, 5, 10)
	g.AddEdge(3, 5, 10)
	g.AddEdge(2, 3, 1)
	part, st, err := numadag.Partition(g, numadag.DefaultPartitionOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.EdgeCut != 1 {
		t.Fatalf("cut = %d, want 1", st.EdgeCut)
	}
	if part[0] != part[1] || part[3] != part[4] || part[0] == part[3] {
		t.Fatalf("triangles split: %v", part)
	}
}

func TestFacadeNames(t *testing.T) {
	if len(numadag.AppNames()) != 8 {
		t.Fatalf("apps: %v", numadag.AppNames())
	}
	if len(numadag.PolicyNames()) != 4 {
		t.Fatalf("policies: %v", numadag.PolicyNames())
	}
}

// TestFacadeTracer traces a hand-built runtime through the facade: the
// machine is attached as pid 0 and the returned observer goes in the
// runtime options.
func TestFacadeTracer(t *testing.T) {
	eng := numadag.NewEngine()
	m := numadag.NewMachine(numadag.TwoSocketXeon(), eng)
	pol, _ := numadag.NewPolicy("DFIFO")
	tr := numadag.NewTracer()
	opts := numadag.DefaultRuntimeOptions()
	opts.Observer = tr.AttachMachine(m, 0, "facade")
	r := numadag.NewRuntime(m, pol, opts)
	reg := r.Mem().Alloc("x", 4096, numadag.Deferred, 0)
	r.Submit(numadag.TaskSpec{Label: "t", Flops: 100,
		Accesses: []numadag.Access{{Region: reg, Mode: numadag.Out}},
		EPSocket: numadag.NoEPHint})
	r.Run()
	if n := tr.Spans(); n < 1 {
		t.Fatalf("trace recorded %d spans", n)
	}
	var gantt strings.Builder
	if err := tr.WriteGantt(&gantt, 0, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gantt.String(), "#") {
		t.Fatalf("gantt shows no busy core:\n%s", gantt.String())
	}
}

// TestFacadeExperimentWorkflow exercises the composable experiment API end
// to end through the facade: register a custom policy, declare a grid over
// it and a built-in baseline, stream cells to JSONL, aggregate a speedup
// table.
func TestFacadeExperimentWorkflow(t *testing.T) {
	err := numadag.RegisterPolicy("facade-test-pol",
		func(spec numadag.PolicySpec) (numadag.Policy, error) {
			if err := spec.Only(); err != nil {
				return nil, err
			}
			p, err := numadag.NewPolicy("DFIFO")
			if err != nil {
				return nil, err
			}
			return p, nil
		})
	// The registry is process-global: a repeated in-process test run
	// (go test -count=2) legitimately finds the name already taken.
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	found := false
	for _, n := range numadag.RegisteredPolicies() {
		if n == "facade-test-pol" {
			found = true
		}
	}
	if !found {
		t.Fatalf("RegisteredPolicies() = %v", numadag.RegisteredPolicies())
	}
	e := &numadag.Experiment{
		Apps:     []string{"jacobi"},
		Policies: []string{"LAS", "facade-test-pol"},
		Scale:    numadag.ScaleTiny,
		Seeds:    2,
	}
	var jsonl strings.Builder
	table := numadag.NewTableSink(numadag.TableOptions{
		Norm:     numadag.NormSpeedup,
		Baseline: func(c numadag.Cell) bool { return c.Policy == "LAS" },
	})
	if err := e.Run(context.Background(), table, numadag.NewJSONLSink(&jsonl)); err != nil {
		t.Fatal(err)
	}
	if v := table.Table().Get("jacobi", "facade-test-pol"); math.IsNaN(v) || v <= 0 {
		t.Fatalf("speedup cell = %v", v)
	}
	if got := strings.Count(jsonl.String(), "\n"); got != 4 {
		t.Fatalf("JSONL streamed %d lines, want 4", got)
	}
	if want := numadag.DeriveSeed(numadag.DefaultRuntimeOptions().Seed, 1); !strings.Contains(jsonl.String(), fmt.Sprintf(`"seed":%d`, want)) {
		t.Fatalf("JSONL missing derived seed %d:\n%s", want, jsonl.String())
	}
}

// TestFacadeSpecErrors pins, byte for byte, the errors a user sees for a
// bad policy or workload spec: the grammar's parse errors, an unknown name
// (with the registered names listed), the typo guard, a bad parameter
// value, and a rejected registration.
func TestFacadeSpecErrors(t *testing.T) {
	policyFactory := func(numadag.PolicySpec) (numadag.Policy, error) { return nil, nil }
	workloadFactory := func(numadag.WorkloadSpec, numadag.Scale, uint64) (numadag.Workload, error) {
		return numadag.Workload{}, nil
	}
	newPolicy := func(s string) error { _, err := numadag.NewPolicy(s); return err }
	newWorkload := func(s string) error { _, err := numadag.NewWorkload(s, numadag.ScaleTiny); return err }
	for _, c := range []struct {
		err  error
		want string
	}{
		{func() error { _, err := numadag.ParsePolicySpec(""); return err }(), `policy: empty name in spec ""`},
		{func() error { _, err := numadag.ParsePolicySpec("LAS?"); return err }(), `policy: malformed parameter "" in spec "LAS?" (want key=value)`},
		{newPolicy("RGP?matching=heavy&matching=random"), `policy: duplicate parameter "matching" in spec "RGP?matching=heavy&matching=random"`},
		{newPolicy("HEFT"), `policy: unknown policy "HEFT" (registered: ` + strings.Join(numadag.RegisteredPolicies(), ", ") + `)`},
		{newPolicy("RGP+LAS?mathcing=random"), `policy: RGP+LAS does not take parameter "mathcing" (allowed: matching, refine)`},
		{newPolicy("LAS?matching=random"), `policy: LAS takes no parameters, got "matching"`},
		{newPolicy("RGP+LAS?matching=bogus"), `policy: RGP+LAS: matching="bogus" (want heavy or random)`},
		{numadag.RegisterPolicy("has space", policyFactory), `policy: invalid registry name "has space"`},
		{numadag.RegisterPolicy("nil-factory", nil), `policy: nil factory for "nil-factory"`},
		{numadag.RegisterPolicy("LAS", policyFactory), `policy: "LAS" already registered`},

		{func() error { _, err := numadag.ParseWorkloadSpec("?x=1"); return err }(), `workload: empty name in spec "?x=1"`},
		{newWorkload("jacobi?nb"), `workload: malformed parameter "nb" in spec "jacobi?nb" (want key=value)`},
		{newWorkload("jacobi?nb=1&nb=2"), `workload: duplicate parameter "nb" in spec "jacobi?nb=1&nb=2"`},
		{newWorkload("no-such-workload"), `workload: unknown workload "no-such-workload" (registered: ` + strings.Join(numadag.WorkloadNames(), ", ") + `)`},
		{newWorkload("forkjoin?fanuot=4"), `workload: forkjoin does not take parameter "fanuot" (allowed: depth, fanout, cv, bytes, flops)`},
		{newWorkload("jacobi?nb="), `workload: jacobi: nb="" is not an integer`},
		{newWorkload("random-layered?cv=x"), `workload: random-layered: cv="x" is not a number`},
		{newWorkload("random-layered?cv=NaN"), `workload: random-layered: cv="NaN" is not a finite number`},
		{newWorkload("jacobi?tile=1Q"), `workload: jacobi: tile="1Q" is not a size (want bytes with optional K/M/G suffix)`},
		{newWorkload("random-layered?seed=-1"), `workload: random-layered: seed="-1" is not an unsigned integer`},
		{newWorkload("jacobi?scale=huge"), `workload: jacobi: apps: unknown scale "huge" (tiny|small|paper)`},
		{numadag.RegisterWorkload("a?b", "", workloadFactory), `workload: invalid registry name "a?b"`},
		{numadag.RegisterWorkload("nil-factory", "", nil), `workload: nil factory for "nil-factory"`},
		{numadag.RegisterWorkload("jacobi", "", workloadFactory), `workload: "jacobi" already registered`},
		{func() error { _, err := numadag.WorkloadDoc("nope"); return err }(), `workload: unknown workload "nope"`},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("error %v\nwant       %s", c.err, c.want)
		}
	}
}
