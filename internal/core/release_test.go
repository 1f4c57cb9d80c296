package core

import (
	"testing"

	"numadag/internal/apps"
	"numadag/internal/rt"
	"numadag/internal/trace"
)

// countTasks is a minimal user observer: any non-nil Observer must keep the
// runtime out of the pool (the observer may retain *Task beyond the run).
type countTasks struct{ n int }

func (c *countTasks) TaskStart(*rt.Task) {}
func (c *countTasks) TaskEnd(*rt.Task)   { c.n++ }

// TestReleaseVsObserverContract pins the pooling rule tracing depends on:
// a plain run recycles its pooled runtime (rt.Releases advances), while a
// run with a Trace attacher or a user Observer must NOT — tracer hooks are
// undetachable and observers may hold tasks, so recycling either would leak
// one cell's instrumentation into the next cell's run.
func TestReleaseVsObserverContract(t *testing.T) {
	cfg := DefaultConfig("forkjoin?depth=3&fanout=2", "LAS", apps.Tiny)

	before := rt.Releases()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if rt.Releases() == before {
		t.Error("plain run did not recycle its pooled runtime")
	}

	traced := cfg
	traced.Trace = trace.NewTracer()
	before = rt.Releases()
	res, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Releases(); got != before {
		t.Errorf("traced run recycled %d pooled runtime(s); traced machines must bypass the pools", got-before)
	}
	if res.Tasks == 0 {
		t.Error("traced run produced no tasks")
	}

	observed := cfg
	obs := &countTasks{}
	observed.Runtime.Observer = obs
	before = rt.Releases()
	if _, err := Run(observed); err != nil {
		t.Fatal(err)
	}
	if got := rt.Releases(); got != before {
		t.Errorf("observed run recycled %d pooled runtime(s); observers may retain *Task", got-before)
	}
	if obs.n == 0 {
		t.Error("user observer saw no tasks")
	}

	// When both are configured, the user observer keeps the Observer slot
	// and the tracer still records via its machine-level hooks.
	both := cfg
	both.Trace = trace.NewTracer()
	both.TracePID = 1
	both.Runtime.Observer = &countTasks{}
	if _, err := Run(both); err != nil {
		t.Fatal(err)
	}
	if both.Trace.Spans() == 0 {
		t.Error("tracer recorded no spans when sharing the run with a user observer")
	}
}
