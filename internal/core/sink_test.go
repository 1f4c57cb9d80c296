package core

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/sim"
)

var update = flag.Bool("update", false, "rewrite sink golden files")

// goldenExperiment is the tiny fixed grid the sink goldens pin: 1 app x
// 2 policies x 2 seeds, sequential so the stream order is beyond doubt.
func goldenExperiment() *Experiment {
	return &Experiment{
		Name:     "golden",
		Apps:     []string{"jacobi"},
		Policies: []string{"LAS", "DFIFO"},
		Scale:    apps.Tiny,
		Seeds:    2,
		Workers:  1,
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run Golden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\ngot:\n%swant:\n%s", name, got, want)
	}
}

func TestJSONLSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenExperiment().Run(context.Background(), NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sink_golden.jsonl", buf.Bytes())
}

// TestJSONLSinkFlushesEveryLine pins the crash contract: each record
// reaches the underlying writer before Emit returns, even through a
// buffered writer, so killing the process mid-stream loses at most the
// record being written — never a buffered tail.
func TestJSONLSinkFlushesEveryLine(t *testing.T) {
	var out bytes.Buffer
	bw := bufio.NewWriterSize(&out, 1<<20) // big enough to never self-flush
	sink := NewJSONLSink(bw)
	for i := 0; i < 3; i++ {
		res := CellResult{Cell: Cell{Index: i, App: "a", Policy: "p"}}
		res.Stats.Makespan = simDur(int64(100 * (i + 1)))
		if err := sink.Emit(res); err != nil {
			t.Fatal(err)
		}
		// Deliberately no Close: the process "dies" here.
		if got := strings.Count(out.String(), "\n"); got != i+1 {
			t.Fatalf("after emit %d: %d complete lines reached the writer, want %d", i, got, i+1)
		}
	}
}

func TestJSONLSinkSyncHook(t *testing.T) {
	var out bytes.Buffer
	sink := NewJSONLSink(&out)
	syncs := 0
	sink.Sync = func() error { syncs++; return nil }
	for i := 0; i < 2; i++ {
		if err := sink.Emit(CellResult{Cell: Cell{Index: i, App: "a"}}); err != nil {
			t.Fatal(err)
		}
	}
	if syncs != 2 {
		t.Errorf("Sync called %d times for 2 records", syncs)
	}
}

func TestCSVSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenExperiment().Run(context.Background(), NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sink_golden.csv", buf.Bytes())
}

// simDur builds a sim.Time for synthetic cell results, so TableSink math
// is testable without simulation runs.
func simDur(n int64) sim.Time { return sim.Time(n) }

func TestTableSinkSpeedupWithBaselineCells(t *testing.T) {
	sink := NewTableSink(TableOptions{
		Norm:     NormSpeedup,
		Baseline: func(c Cell) bool { return c.Policy == "LAS" },
		Geomean:  true,
	})
	emit := func(app, pol string, rep int, mk int64) {
		res := CellResult{Cell: Cell{App: app, Policy: pol, Replicate: rep}}
		res.Stats.Makespan = simDur(mk)
		if err := sink.Emit(res); err != nil {
			t.Fatal(err)
		}
	}
	// app1: LAS mean 200, DFIFO mean 400 -> speedup 0.5.
	emit("app1", "LAS", 0, 100)
	emit("app1", "LAS", 1, 300)
	emit("app1", "DFIFO", 0, 400)
	emit("app1", "DFIFO", 1, 400)
	// app2: LAS 100, DFIFO 50 -> speedup 2.0.
	emit("app2", "LAS", 0, 100)
	emit("app2", "DFIFO", 0, 50)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	tb := sink.Table()
	if got := tb.Get("app1", "DFIFO"); got != 0.5 {
		t.Errorf("app1 speedup %v", got)
	}
	if got := tb.Get("app2", "DFIFO"); got != 2.0 {
		t.Errorf("app2 speedup %v", got)
	}
	if got := tb.Get("geomean", "DFIFO"); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("geomean %v", got)
	}
	// The baseline never becomes a column.
	for _, c := range tb.Columns {
		if c == "LAS" {
			t.Error("baseline column leaked into the table")
		}
	}
}

func TestTableSinkRatioToColumn(t *testing.T) {
	sink := NewTableSink(TableOptions{
		Norm:           NormRatio,
		Columns:        []string{"full", "ablated"},
		BaselineColumn: "full",
	})
	for _, e := range []struct {
		pol string
		mk  int64
	}{{"full", 100}, {"ablated", 150}} {
		res := CellResult{Cell: Cell{App: "a", Policy: e.pol}}
		res.Stats.Makespan = simDur(e.mk)
		if err := sink.Emit(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	tb := sink.Table()
	if tb.Get("a", "full") != 1.0 || tb.Get("a", "ablated") != 1.5 {
		t.Errorf("ratios %v %v", tb.Get("a", "full"), tb.Get("a", "ablated"))
	}
}

func TestTableSinkNormBest(t *testing.T) {
	sink := NewTableSink(TableOptions{
		Col:  func(c Cell) string { return c.Variant },
		Norm: NormBest,
	})
	for _, e := range []struct {
		v  string
		mk int64
	}{{"w=64", 300}, {"w=256", 200}, {"w=1024", 250}} {
		res := CellResult{Cell: Cell{App: "a", Variant: e.v}}
		res.Stats.Makespan = simDur(e.mk)
		if err := sink.Emit(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	tb := sink.Table()
	if tb.Get("a", "w=256") != 1.0 || tb.Get("a", "w=64") != 1.5 || tb.Get("a", "w=1024") != 1.25 {
		t.Errorf("best-normalized row: %v %v %v",
			tb.Get("a", "w=64"), tb.Get("a", "w=256"), tb.Get("a", "w=1024"))
	}
}

func TestTableSinkUnknownColumnErrors(t *testing.T) {
	sink := NewTableSink(TableOptions{
		Norm:    NormRaw,
		Columns: []string{"known"},
		Col:     func(c Cell) string { return c.Variant }, // maps to "" for these cells
	})
	res := CellResult{Cell: Cell{App: "a", Policy: "LAS"}}
	res.Stats.Makespan = simDur(100)
	if err := sink.Emit(res); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err == nil {
		t.Error("cell outside the fixed column list silently dropped")
	}
}

func TestTableSinkMissingBaselineErrors(t *testing.T) {
	sink := NewTableSink(TableOptions{
		Norm:     NormSpeedup,
		Baseline: func(c Cell) bool { return c.Policy == "LAS" },
	})
	res := CellResult{Cell: Cell{App: "a", Policy: "DFIFO"}}
	res.Stats.Makespan = simDur(100)
	if err := sink.Emit(res); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err == nil {
		t.Error("missing baseline not reported")
	}
}
