package cluster

import (
	"testing"

	"numadag/internal/rt"
	"numadag/internal/trace"
)

// recObserver records the job-event stream: per-job event order and the
// dispatch candidates (copied — the sampler's slice is reused scratch).
type recObserver struct {
	submits, dispatches, starts, completes int
	order                                  map[int][]string
	candidates                             [][]int
}

func newRecObserver() *recObserver { return &recObserver{order: map[int][]string{}} }

func (o *recObserver) JobSubmit(j *Job) {
	o.submits++
	o.order[j.ID] = append(o.order[j.ID], "submit")
}
func (o *recObserver) JobDispatch(j *Job, candidates []int, queued int) {
	o.dispatches++
	o.order[j.ID] = append(o.order[j.ID], "dispatch")
	o.candidates = append(o.candidates, append([]int(nil), candidates...))
}
func (o *recObserver) JobStart(j *Job, queued int) {
	o.starts++
	o.order[j.ID] = append(o.order[j.ID], "start")
}
func (o *recObserver) JobComplete(j *Job) {
	o.completes++
	o.order[j.ID] = append(o.order[j.ID], "complete")
}

// TestObserverEventStream pins the cluster Observer contract: every job is
// seen submit -> dispatch -> start -> complete in order (zero-task jobs
// complete in the same instant they start, but never out of order), and the
// k-choices dispatcher reports its sampled candidates including the chosen
// machine.
func TestObserverEventStream(t *testing.T) {
	cfg := testConfig(80)
	obs := newRecObserver()
	cfg.Observer = obs
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Stats.All.Jobs
	if obs.submits != n || obs.dispatches != n || obs.starts != n || obs.completes != n {
		t.Fatalf("event counts diverge from %d jobs: submit %d dispatch %d start %d complete %d",
			n, obs.submits, obs.dispatches, obs.starts, obs.completes)
	}
	want := []string{"submit", "dispatch", "start", "complete"}
	for id, seq := range obs.order {
		if len(seq) != len(want) {
			t.Fatalf("job %d: event sequence %v", id, seq)
		}
		for i := range want {
			if seq[i] != want[i] {
				t.Fatalf("job %d: event sequence %v, want %v", id, seq, want)
			}
		}
	}
	for _, cand := range obs.candidates {
		if len(cand) == 0 {
			t.Fatal("k-choices dispatch reported no candidates")
		}
		for _, m := range cand {
			if m < 0 || m >= cfg.Machines {
				t.Fatalf("candidate machine %d out of range", m)
			}
		}
	}
}

// TestIdleDispatcherReportsNoCandidates: IdleHeap does not sample, so the
// candidates slice is nil — observers must treat it as optional.
func TestIdleDispatcherReportsNoCandidates(t *testing.T) {
	cfg := testConfig(20)
	cfg.Dispatcher = "idle"
	obs := newRecObserver()
	cfg.Observer = obs
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, cand := range obs.candidates {
		if cand != nil {
			t.Fatalf("idle dispatcher reported candidates %v", cand)
		}
	}
}

// TestClusterReleaseVsTraceContract is the fleet-side pooling rule: an
// untraced run recycles one pooled runtime per job, a traced run (machine
// observers attached) must recycle none of them. Both runs still release
// their snapshot-prebuild proto runtimes — untraced scratch never bound to
// a traced machine — so the contract is the per-job difference, not an
// absolute zero.
func TestClusterReleaseVsTraceContract(t *testing.T) {
	before := rt.Releases()
	res, err := Run(testConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	untraced := rt.Releases() - before
	if untraced == 0 {
		t.Error("untraced cluster run did not recycle any pooled runtime")
	}

	cfg := testConfig(20)
	cfg.Trace = trace.NewTracer()
	before = rt.Releases()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	traced := rt.Releases() - before
	if want := uint64(res.Stats.All.Jobs); untraced-traced != want {
		t.Errorf("traced run released %d fewer runtimes than untraced, want exactly %d (one per job)",
			untraced-traced, want)
	}
	if cfg.Trace.Spans() == 0 {
		t.Error("cluster tracer recorded no spans")
	}
}
