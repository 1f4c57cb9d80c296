package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final time %v, want 30", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("After fired at %v, want 150", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.After(1, rec)
		}
	}
	e.After(0, rec)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("now = %v, want 99", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	drained := e.RunUntil(25)
	if drained {
		t.Fatal("RunUntil(25) reported drained with events pending")
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock %v after RunUntil(25)", e.Now())
	}
	if !e.RunUntil(1000) {
		t.Fatal("queue should drain by 1000")
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	if e.Pending() != 0 {
		t.Fatal("Pending non-zero on fresh engine")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.50µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Fatalf("Seconds = %v, want 2.0", s)
	}
}

// Exercise the indexed heap against a brute-force model: random schedule /
// stop / step interleavings must fire exactly the never-stopped events, in
// (time, scheduling-order) order, with Pending always exact.
func TestIndexedHeapAgainstModel(t *testing.T) {
	// Deterministic xorshift so failures reproduce.
	rnd := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return int(rnd % uint64(n))
	}
	type modelEv struct {
		at      Time
		id      int
		stopped bool
	}
	e := NewEngine()
	var model []modelEv
	var fired []int
	timers := map[int]Timer{}
	nextID := 0
	for op := 0; op < 5000; op++ {
		switch next(4) {
		case 0, 1: // schedule
			at := e.Now() + Time(next(50))
			id := nextID
			nextID++
			timers[id] = e.At(at, func() { fired = append(fired, id) })
			model = append(model, modelEv{at: at, id: id})
		case 2: // stop a random known timer (possibly already fired)
			if nextID == 0 {
				continue
			}
			id := next(nextID)
			timers[id].Stop()
			for i := range model {
				if model[i].id == id {
					model[i].stopped = true
				}
			}
		case 3:
			e.Step()
		}
		// Pending must equal the model's live, unfired count.
		live := 0
		for _, m := range model {
			alreadyFired := false
			for _, f := range fired {
				if f == m.id {
					alreadyFired = true
					break
				}
			}
			if !m.stopped && !alreadyFired {
				live++
			}
		}
		if e.Pending() != live {
			t.Fatalf("op %d: Pending = %d, model says %d", op, e.Pending(), live)
		}
	}
	e.Run()
	// Expected firing order: every never-stopped event, stable-sorted by
	// time (insertion order breaks ties, which is scheduling order). An
	// event both fired and later "stopped" keeps its fired slot — Stop
	// after firing is a no-op — so partition by what actually fired.
	firedSet := map[int]bool{}
	for _, id := range fired {
		firedSet[id] = true
	}
	live := make([]modelEv, 0, len(model))
	for _, m := range model {
		if firedSet[m.id] {
			live = append(live, m)
		}
	}
	// Insertion sort, stable, by time only.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].at < live[j-1].at; j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	if len(live) != len(fired) {
		t.Fatalf("fired %d events, model expects %d", len(fired), len(live))
	}
	for i := range fired {
		if fired[i] != live[i].id {
			t.Fatalf("firing order diverged at %d: got %d, want %d", i, fired[i], live[i].id)
		}
	}
}

// Slot recycling must keep a Timer handle from a previous occupant inert.
func TestTimerGenerationSafety(t *testing.T) {
	e := NewEngine()
	fired := 0
	t1 := e.At(10, func() { fired++ })
	e.Run() // t1 fires; its slot returns to the free list
	t2 := e.At(20, func() { fired++ })
	t1.Stop() // stale handle into the recycled slot: must be a no-op
	e.Run()
	if fired != 2 {
		t.Fatalf("fired %d events, want 2 (stale Stop cancelled a live event?)", fired)
	}
	t2.Stop() // after firing: no-op
	var zero Timer
	zero.Stop() // zero value: no-op
}

func TestRunUntilWithStoppedEvents(t *testing.T) {
	e := NewEngine()
	var fired []Time
	mk := func(at Time) Timer { return e.At(at, func() { fired = append(fired, at) }) }
	mk(10)
	tm := mk(20)
	mk(30)
	tm.Stop()
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after stop, want 2", e.Pending())
	}
	if e.RunUntil(25) {
		t.Fatal("queue reported drained with event at 30 pending")
	}
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired %v, want [10]", fired)
	}
	if !e.RunUntil(100) {
		t.Fatal("queue should drain")
	}
}

func TestDeterministicStepCount(t *testing.T) {
	run := func() uint64 {
		e := NewEngine()
		for i := 0; i < 100; i++ {
			d := Time(i * 7 % 13)
			e.At(d, func() { e.After(3, func() {}) })
		}
		e.Run()
		return e.Steps()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("step counts differ across identical runs: %d vs %d", a, b)
	}
}

// atEachRun drives one random schedule on a fresh engine and returns its
// firing log and step count. Events are queued before and after a stream of
// times (sorted, with same-instant runs), all on a 10ns grid so ties are
// common; every callback may At a new event, Stop one or Reschedule one,
// each landing on the current or a later grid instant. queue puts the
// stream on the engine: through AtEach, or as consecutive At calls.
func atEachRun(seed int64, queue func(e *Engine, at []Time, fn func(i int))) ([]string, uint64) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var log []string
	var timers []Timer
	var act func()
	var other func(id int) func()
	ids := 0
	schedule := func(at Time) {
		timers = append(timers, e.At(at, other(ids)))
		ids++
	}
	other = func(id int) func() {
		return func() {
			log = append(log, fmt.Sprintf("o%d@%d", id, e.Now()))
			act()
		}
	}
	act = func() {
		later := e.Now() + 10*Time(rng.Intn(4))
		switch rng.Intn(4) {
		case 0, 1:
			schedule(later)
		case 2:
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Stop()
			}
		case 3:
			if len(timers) > 0 {
				e.Reschedule(timers[rng.Intn(len(timers))], later)
			}
		}
	}
	at := make([]Time, 5+rng.Intn(40))
	for i := range at {
		at[i] = 10 * Time(rng.Intn(16))
	}
	slices.Sort(at)
	for i := rng.Intn(8); i > 0; i-- {
		schedule(10 * Time(rng.Intn(16)))
	}
	queue(e, at, func(i int) {
		log = append(log, fmt.Sprintf("s%d@%d", i, e.Now()))
		act()
	})
	for i := rng.Intn(8) + 4; i > 0; i-- {
		schedule(10 * Time(rng.Intn(16)))
	}
	e.Run()
	return log, e.Steps()
}

// TestAtEachMatchesConsecutiveAt pins AtEach to the schedule it replaces:
// on random schedules whose callbacks At, Stop and Reschedule other events
// at the stream's instants, the firing order and step count equal those of
// the same times queued as consecutive At calls. Events queued after the
// AtEach call at a stream instant must still lose the tie to the stream's
// event there, which only holds because AtEach claims every seq up front.
func TestAtEachMatchesConsecutiveAt(t *testing.T) {
	consecutive := func(e *Engine, at []Time, fn func(int)) {
		for i, ti := range at {
			i := i
			e.At(ti, func() { fn(i) })
		}
	}
	atEach := func(e *Engine, at []Time, fn func(int)) { e.AtEach(at, fn) }
	for seed := int64(1); seed <= 200; seed++ {
		wantLog, wantSteps := atEachRun(seed, consecutive)
		gotLog, gotSteps := atEachRun(seed, atEach)
		if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) || gotSteps != wantSteps {
			t.Fatalf("seed %d: AtEach fired %v (%d steps), consecutive At fired %v (%d steps)",
				seed, gotLog, gotSteps, wantLog, wantSteps)
		}
	}
}

// TestAtEachPanics pins AtEach's argument checks to At's: a time before now,
// decreasing times and a nil function panic, and queue nothing.
func TestAtEachPanics(t *testing.T) {
	noop := func(int) {}
	for _, c := range []struct {
		name string
		at   []Time
		fn   func(int)
	}{
		{"past", []Time{5, 20}, noop},
		{"decreasing", []Time{20, 30, 25}, noop},
		{"nil fn", []Time{20}, nil},
		{"nil fn, no times", nil, nil},
	} {
		e := NewEngine()
		e.At(10, func() {})
		e.Run()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AtEach(%v) did not panic", c.name, c.at)
				}
			}()
			e.AtEach(c.at, c.fn)
		}()
		if e.Pending() != 0 {
			t.Errorf("%s: a rejected AtEach queued %d events", c.name, e.Pending())
		}
	}
}

// TestFlushersRunInRegistrationOrder pins the end-of-instant flush order the
// tracer's link samplers depend on: every Net churned in the instant fills
// first, then the registered flushers run in registration order, whether
// they were registered before the Nets or after. A flusher's same-instant
// event fires before the clock advances.
func TestFlushersRunInRegistrationOrder(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	var r1, r2 *Resource
	var rates [][2]float64
	sample := func(name string) func() {
		return func() {
			note(name)
			rates = append(rates, [2]float64{r1.Rate(), r2.Rate()})
		}
	}
	e.AddFlusher(sample("early"))
	n1, n2 := NewNet(e), NewNet(e)
	r1 = n1.NewResource("mc1", 10)
	r2 = n2.NewResource("mc2", 6)
	for i, n := range []*Net{n1, n2} {
		name, fill := fmt.Sprintf("net%d", i+1), n.fill
		n.fill = func(now Time) {
			note(name)
			fill(now)
		}
	}
	scheduled := false
	late := sample("late")
	e.AddFlusher(func() {
		late()
		if !scheduled {
			scheduled = true
			e.At(e.Now(), func() { note("same-instant") })
		}
	})
	e.At(10, func() {
		n1.StartFlow(1000, []*Resource{r1}, nil)
		n1.StartFlow(1000, []*Resource{r1}, nil)
		n2.StartFlow(600, []*Resource{r2}, nil)
	})
	e.At(11, func() { note("tick") })
	e.Run()

	want := []string{"net1@10", "net2@10", "early@10", "late@10", "same-instant@10", "tick@11"}
	if len(log) < len(want) || fmt.Sprint(log[:len(want)]) != fmt.Sprint(want) {
		t.Fatalf("flush log %v, want prefix %v", log, want)
	}
	// Two flows share mc1's 10 B/ns; one flow has mc2's 6 B/ns to itself.
	// Both flushers read the settled rates, the one registered before the
	// Nets included.
	for i, name := range []string{"early", "late"} {
		if rates[i] != [2]float64{10, 6} {
			t.Errorf("%s flusher read rates %v at the churn instant, want settled [10 6]", name, rates[i])
		}
	}
}

// TestEndOfInstantFlushFillsOnlyDirtyNets pins the engine's dirty-Net list:
// an end-of-instant flush fills exactly the Nets that churned in the
// instant, in churn order, before any flusher runs, so a sampler registered
// before every Net still reads settled rates. A Net that Flow.Rate flushed
// early and that churned again stays listed once, and the list never holds
// more entries than there are Nets.
func TestEndOfInstantFlushFillsOnlyDirtyNets(t *testing.T) {
	e := NewEngine()
	type visit struct {
		at  Time
		net int
	}
	var fills, want []visit
	var churned []int // Nets churned since the last flush, first-churn order
	var r1, r2 *Resource
	var nets []*Net
	maxListed := 0
	e.AddFlusher(func() {
		now := e.Now()
		for i, n := range nets {
			if n.dirty {
				t.Errorf("t=%v: sampler ran before net%d filled", now, i+1)
			}
		}
		if now == 10 && (r1.Rate() != 10 || r2.Rate() != 6) {
			t.Errorf("sampler read rates [%v %v] at t=10, want settled [10 6]", r1.Rate(), r2.Rate())
		}
		// A churned Net fills unless its churn emptied it (then it only
		// settles its resources).
		for _, i := range churned {
			if nets[i].ActiveFlows() > 0 {
				want = append(want, visit{now, i})
			}
		}
		churned = churned[:0]
	})
	n1, n2 := NewNet(e), NewNet(e)
	nets = []*Net{n1, n2}
	r1 = n1.NewResource("mc1", 10)
	r2 = n2.NewResource("mc2", 6)
	early := false // a fill forced by Flow.Rate, not by the engine
	for i, n := range nets {
		i, fill := i, n.fill
		n.fill = func(now Time) {
			if !early {
				fills = append(fills, visit{now, i})
			}
			fill(now)
		}
		churn := func(*Flow) {
			if !slices.Contains(churned, i) {
				churned = append(churned, i)
			}
			maxListed = max(maxListed, len(e.dirty))
		}
		n.SetFlowHooks(churn, churn)
	}
	e.At(10, func() {
		// Reverse creation order.
		n2.StartFlow(600, []*Resource{r2}, nil)
		n1.StartFlow(1000, []*Resource{r1}, nil)
		n1.StartFlow(1000, []*Resource{r1}, nil)
	})
	e.At(20, func() {
		for k := 0; k < 50; k++ {
			f := n1.StartFlow(1000+float64(k), []*Resource{r1}, nil)
			early = true
			f.Rate() // flushes n1 now; it must stay listed, once
			early = false
			if len(e.dirty) != 1 || e.dirty[0] != n1 {
				t.Fatalf("after an early flush and a churn, the dirty list has %d entries, want [net1]", len(e.dirty))
			}
		}
		n1.StartFlow(500, []*Resource{r1}, nil) // left for the engine's flush
	})
	e.Run()

	if maxListed > len(nets) {
		t.Errorf("dirty list reached %d entries with %d Nets", maxListed, len(nets))
	}
	if len(e.dirty) != 0 || n1.listed || n2.listed {
		t.Errorf("dirty list not drained at the end of the run: %d entries", len(e.dirty))
	}
	if len(fills) < 3 || fills[0] != (visit{10, 1}) || fills[1] != (visit{10, 0}) || fills[2] != (visit{20, 0}) {
		t.Fatalf("fills %v, want net2 then net1 at t=10 (churn order), then net1 alone at t=20", fills)
	}
	if fmt.Sprint(fills) != fmt.Sprint(want) {
		t.Errorf("fills %v, want exactly the churned, non-empty Nets per instant %v", fills, want)
	}
}
