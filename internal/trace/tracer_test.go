package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

var updateTraceGolden = flag.Bool("update", false, "rewrite the trace golden files in testdata/")

// pinByLabel sends "near" tasks to socket 0 and everything else to socket 1,
// so a write-on-0 / read-on-1 chain forces cross-socket transfers (and with
// them flow spans and link-utilization counters) deterministically.
type pinByLabel struct{}

func (pinByLabel) Name() string { return "pinbylabel" }
func (pinByLabel) PickSocket(_ *rt.Runtime, t *rt.Task) int {
	if t.Label() == "near" {
		return 0
	}
	return 1
}

// buildTraced runs the pinned golden scenario into a fresh Tracer: a
// two-socket machine as pid 0 with tasks, transfers, flows and utilization
// counters from the runtime, plus a hand-driven job span, dispatch instant
// and queue-depth series on the sched lane (what the cluster layer emits).
func buildTraced(t testing.TB) *Tracer {
	t.Helper()
	tr := NewTracer()
	m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	obs := tr.AttachMachine(m, 0, "golden scenario")
	r := rt.NewRuntime(m, pinByLabel{}, rt.Options{Seed: 1, Observer: obs})

	regs := make([]*memory.Region, 3)
	for i := range regs {
		regs[i] = r.Mem().Alloc("r", 256<<10, memory.Deferred, 0)
	}
	for layer := 0; layer < 3; layer++ {
		for i, reg := range regs {
			label := "near"
			if (layer+i)%2 == 1 {
				label = "far"
			}
			r.Submit(rt.TaskSpec{Label: label, Flops: 50_000,
				Accesses: []rt.Access{{Region: reg, Mode: rt.InOut}},
				EPSocket: rt.NoEPHint})
		}
	}
	tr.BeginJob(0, "job 0 golden", 0)
	tr.Instant(0, "dispatch", 0, `{"job":0,"queued":1}`)
	tr.QueueDepth(0, 0, 1)
	res := r.Run()
	tr.QueueDepth(0, res.Makespan, 0)
	tr.EndJob(0, res.Makespan, `{"job":0,"slowdown":1.5}`)
	return tr
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateTraceGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output diverged from golden (%d bytes vs %d); rerun with -update only if the trace format change is intended",
			path, len(got), len(want))
	}
}

// TestChromeTraceGolden pins the Chrome trace bytes for the golden scenario:
// any change to event content, key order, timestamp formatting or lane
// assignment shows up as a byte diff.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTraced(t).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/chrome.golden.json", buf.Bytes())
}

// TestGanttGolden pins the text renderer: core rows plus the flow/link rows
// the tracer adds over the legacy per-task view.
func TestGanttGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTraced(t).WriteGantt(&buf, 0, 72); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.Contains(out, []byte("core 0")) || !bytes.Contains(out, []byte("mc0")) {
		t.Fatalf("gantt missing core or link rows:\n%s", out)
	}
	checkGolden(t, "testdata/gantt.golden.txt", out)
}

// TestChromeTraceBytesDeterministic demands two independent runs of the
// same scenario render byte-identical traces — the per-pid buffering and
// sorted rendering contract, independent of the golden file's vintage.
func TestChromeTraceBytesDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildTraced(t).WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildTraced(t).WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical traced runs produced different trace bytes")
	}
}

// TestChromeTracePerfettoFields parses the trace with encoding/json and
// checks the fields the Perfetto / chrome://tracing importers require for
// each phase actually present — the hand-rolled writer never goes through a
// marshaller, so this guards both validity and schema.
func TestChromeTracePerfettoFields(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTraced(t).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(top.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	phases := map[string]int{}
	for i, e := range top.TraceEvents {
		ph, _ := e["ph"].(string)
		phases[ph]++
		name, _ := e["name"].(string)
		if name == "" {
			t.Fatalf("event %d: missing name: %v", i, e)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event %d (%s): missing pid: %v", i, name, e)
		}
		switch ph {
		case "X":
			for _, k := range []string{"ts", "dur", "tid"} {
				if _, ok := e[k].(float64); !ok {
					t.Fatalf("X event %d (%s): missing %s: %v", i, name, k, e)
				}
			}
		case "C":
			if _, ok := e["ts"].(float64); !ok {
				t.Fatalf("C event %d (%s): missing ts: %v", i, name, e)
			}
			args, ok := e["args"].(map[string]any)
			if !ok || len(args) == 0 {
				t.Fatalf("C event %d (%s): counters need non-empty numeric args: %v", i, name, e)
			}
			for k, v := range args {
				if _, ok := v.(float64); !ok {
					t.Fatalf("C event %d (%s): series %q is not numeric: %v", i, name, k, v)
				}
			}
		case "i":
			if s, _ := e["s"].(string); s != "p" && s != "t" && s != "g" {
				t.Fatalf("i event %d (%s): bad scope %q", i, name, e["s"])
			}
			if _, ok := e["ts"].(float64); !ok {
				t.Fatalf("i event %d (%s): missing ts: %v", i, name, e)
			}
		case "M":
			if _, ok := e["args"].(map[string]any); !ok {
				t.Fatalf("M event %d (%s): missing args: %v", i, name, e)
			}
		default:
			t.Fatalf("event %d (%s): unexpected phase %q", i, name, ph)
		}
	}
	// The golden scenario must exercise every phase: task/transfer/flow/job
	// spans, utilization + queue counters, dispatch instants, and metadata.
	for _, ph := range []string{"X", "C", "i", "M"} {
		if phases[ph] == 0 {
			t.Errorf("scenario produced no ph=%s events", ph)
		}
	}
}

// TestTracerSpansAndGanttErrors covers the small API contracts: Spans
// counts closed spans, WriteGantt on an unknown pid errors.
func TestTracerSpansAndGanttErrors(t *testing.T) {
	tr := buildTraced(t)
	if n := tr.Spans(); n == 0 {
		t.Error("Spans() == 0 after a traced run")
	}
	if err := tr.WriteGantt(&bytes.Buffer{}, 42, 40); err == nil {
		t.Error("WriteGantt on an unattached pid should error")
	}
}
