package cluster

import (
	"encoding/json"
	"net/http/httptest"
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

// TestMonitorSnapshotAndEndpoints drives a full run with a Monitor attached
// and checks the final published snapshot and both HTTP endpoints (the
// in-process equivalent of dcsim -http).
func TestMonitorSnapshotAndEndpoints(t *testing.T) {
	cfg := testConfig(40)
	cfg.Trace = trace.NewTracer()
	mon := NewMonitor(cfg.Trace)
	cfg.Monitor = mon
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := mon.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot published")
	}
	if snap.JobsDone != res.Stats.All.Jobs {
		t.Errorf("snapshot has %d jobs done, run completed %d", snap.JobsDone, res.Stats.All.Jobs)
	}
	if snap.JobsRunning != 0 || snap.JobsQueued != 0 {
		t.Errorf("final snapshot still shows %d running, %d queued", snap.JobsRunning, snap.JobsQueued)
	}
	if len(snap.Tenants) != len(cfg.Tenants)+1 { // per-tenant digests + "all"
		t.Errorf("snapshot has %d tenant digests, want %d", len(snap.Tenants), len(cfg.Tenants)+1)
	}
	for _, ts := range snap.Tenants {
		if ts.Jobs > 0 && (ts.P50 <= 0 || ts.P99 < ts.P50) {
			t.Errorf("tenant %s: degenerate quantiles %+v", ts.Name, ts)
		}
	}

	h := mon.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("/status returned %d", rec.Code)
	}
	var decoded MonitorSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if decoded.JobsDone != snap.JobsDone {
		t.Errorf("/status reports %d jobs done, snapshot has %d", decoded.JobsDone, snap.JobsDone)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/trace returned %d", rec.Code)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Error("/trace is not valid JSON")
	}

	// Without a tracer, /trace 404s but /status still works.
	bare := NewMonitor(nil)
	rec = httptest.NewRecorder()
	bare.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 404 {
		t.Errorf("/trace without tracer returned %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	bare.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 503 { // no run bound yet
		t.Errorf("/status before a run returned %d, want 503", rec.Code)
	}
}

// submitProbe reads the monitor's snapshot from inside the observer chain.
// User observers run before the monitor for each event, so at our
// JobDispatch callback the monitor has processed this job's submit but NOT
// its dispatch — if the snapshot already counts the submission, it was
// published at submit time, which is exactly the regression this pins
// (Monitor.JobSubmit used to be a no-op, leaving /status blind to
// submitted-but-queued load until dispatch).
type submitProbe struct {
	mon        *Monitor
	submits    int
	atDispatch []int // snapshot's JobsSubmitted at each dispatch
}

func (p *submitProbe) JobSubmit(j *Job) { p.submits++ }
func (p *submitProbe) JobDispatch(j *Job, cands []int, queued int) {
	if s := p.mon.Snapshot(); s != nil {
		p.atDispatch = append(p.atDispatch, s.JobsSubmitted)
	}
}
func (p *submitProbe) JobStart(j *Job, queued int) {}
func (p *submitProbe) JobComplete(j *Job)          {}

// TestMonitorPublishesOnSubmit pins the JobSubmit bugfix from inside the
// run and over HTTP: the snapshot visible at a job's dispatch already
// counts that job's submission, and the final /status JSON reports the full
// submitted count.
func TestMonitorPublishesOnSubmit(t *testing.T) {
	cfg := testConfig(40)
	mon := NewMonitor(nil)
	cfg.Monitor = mon
	probe := &submitProbe{mon: mon}
	cfg.Observer = probe
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.atDispatch) == 0 {
		t.Fatal("probe saw no dispatches")
	}
	for i, got := range probe.atDispatch {
		// Dispatch i happens after submit i+1 was published (submits and
		// dispatches alternate within arrive), so the snapshot must already
		// count at least that many submissions — and at most the total seen.
		if got < i+1 || got > probe.submits {
			t.Fatalf("dispatch %d: snapshot counts %d submitted, want in [%d, %d] — submit not published before dispatch",
				i, got, i+1, probe.submits)
		}
	}
	snap := mon.Snapshot()
	if snap.JobsSubmitted != len(res.Jobs) {
		t.Errorf("final snapshot counts %d submitted, run had %d jobs", snap.JobsSubmitted, len(res.Jobs))
	}

	rec := httptest.NewRecorder()
	mon.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("/status returned %d", rec.Code)
	}
	var decoded MonitorSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if decoded.JobsSubmitted != len(res.Jobs) {
		t.Errorf("/status reports %d submitted, run had %d jobs", decoded.JobsSubmitted, len(res.Jobs))
	}
}
