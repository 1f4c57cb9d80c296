// Traced-determinism suite: tracing must observe, never perturb.
//
// TestTracerNonPerturbing is the cheap always-on check — representative
// single-machine and cluster cells run with and without a Tracer attached
// and must produce identical physics (makespan, engine steps, bytes moved,
// completion hash). TestDeterminismGoldenTraced re-runs the *entire*
// determinism golden sweep with a tracer attached to every cell and demands
// the same goldens as the untraced suite; it is expensive, so CI runs it as
// its own step gated on NUMADAG_TRACED_GOLDEN=1. Trace output itself must
// also be deterministic: TestClusterTraceDeterministic renders a traced
// service-mode run twice and compares bytes.
package numadag_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/cluster"
	"numadag/internal/trace"
)

// runCellTraced is runCell with a fresh Tracer attached — each cell gets its
// own tracer so traced machines (which carry undetachable hooks) never leak
// state between cells.
func runCellTraced(t testing.TB, spec, polName string, seed uint64) goldenEntry {
	return runGoldenCell(t, spec, polName, seed, trace.NewTracer())
}

func runClusterCellTraced(t testing.TB, dispatcher string, seed uint64) goldenEntry {
	cfg := clusterGoldenConfig(dispatcher, seed)
	cfg.Trace = trace.NewTracer()
	res, err := cluster.Run(cfg)
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

// TestTracerNonPerturbing spot-checks the observe-don't-perturb contract on
// representative cells: a steal-heavy random policy, the repartitioning RGP
// path, and both cluster dispatchers (arrivals, queueing, zero-task jobs).
func TestTracerNonPerturbing(t *testing.T) {
	for _, app := range []string{"jacobi", "nstream"} {
		for _, pol := range []string{"LAS", "RGP+LAS"} {
			plain := runCell(t, app, pol, 7)
			traced := runCellTraced(t, app, pol, 7)
			if plain != traced {
				t.Errorf("%s/%s: tracing perturbed the run: %+v vs %+v", app, pol, plain, traced)
			}
		}
	}
	for _, disp := range []string{"kchoices?d=2", "idle"} {
		plain := runClusterCell(t, disp, 7)
		traced := runClusterCellTraced(t, disp, 7)
		if plain != traced {
			t.Errorf("cluster/%s: tracing perturbed the run: %+v vs %+v", disp, plain, traced)
		}
	}
}

// TestDeterminismGoldenTraced runs the full golden sweep with a tracer on
// every cell and checks against the same golden file as the untraced suite —
// if tracing shifts a single event anywhere in the grid, a golden diverges.
// Gated behind NUMADAG_TRACED_GOLDEN=1 (a dedicated CI step) because it
// duplicates the whole sweep.
func TestDeterminismGoldenTraced(t *testing.T) {
	if os.Getenv("NUMADAG_TRACED_GOLDEN") != "1" {
		t.Skip("set NUMADAG_TRACED_GOLDEN=1 to run the traced golden sweep")
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	check := func(key string, got goldenEntry) {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: not in golden file", key)
			return
		}
		if got != w {
			t.Errorf("%s: traced run diverged from untraced golden: got %+v, want %+v", key, got, w)
		}
	}
	for _, app := range append(apps.Names(), determinismSynthetics...) {
		for _, pol := range determinismPolicies {
			for seed := uint64(1); seed <= 3; seed++ {
				check(cellKey(app, pol, seed), runCellTraced(t, app, pol, seed))
			}
		}
	}
	for _, disp := range []string{"kchoices?d=2", "idle"} {
		for seed := uint64(1); seed <= 3; seed++ {
			check(cellKey("cluster", disp, seed), runClusterCellTraced(t, disp, seed))
		}
	}
}

// TestClusterTraceDeterministic renders the traced golden cluster scenario
// twice and demands byte-identical, JSON-valid Chrome traces — the
// fixed-seed trace output contract end to end (arrivals, dispatch instants,
// job spans, per-machine counters).
func TestClusterTraceDeterministic(t *testing.T) {
	render := func() []byte {
		cfg := clusterGoldenConfig("kchoices?d=2", 3)
		cfg.Trace = trace.NewTracer()
		if _, err := cluster.Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical traced cluster runs produced different trace bytes")
	}
	if !json.Valid(a) {
		t.Fatal("cluster trace is not valid JSON")
	}
}
