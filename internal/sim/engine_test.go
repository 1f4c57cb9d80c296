package sim

import (
	"fmt"
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

// TestFlushersRunInRegistrationOrder pins the end-of-instant flush order the
// tracer's link samplers depend on: two Nets and a sampler registered after
// them share one engine, and churn on both Nets in one instant must settle
// both before the sampler runs. A flusher's same-instant event fires before
// the clock advances.
func TestFlushersRunInRegistrationOrder(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	n1, n2 := NewNet(e), NewNet(e)
	r1 := n1.NewResource("mc1", 10)
	r2 := n2.NewResource("mc2", 6)
	for i, n := range []*Net{n1, n2} {
		name, fill := fmt.Sprintf("net%d", i+1), n.fill
		n.fill = func(now Time) {
			note(name)
			fill(now)
		}
	}
	var rates [][2]float64
	scheduled := false
	e.AddFlusher(func() {
		note("sampler")
		rates = append(rates, [2]float64{r1.Rate(), r2.Rate()})
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

	want := []string{"net1@10", "net2@10", "sampler@10", "same-instant@10", "tick@11"}
	if len(log) < len(want) || fmt.Sprint(log[:len(want)]) != fmt.Sprint(want) {
		t.Fatalf("flush log %v, want prefix %v", log, want)
	}
	// Two flows share mc1's 10 B/ns; one flow has mc2's 6 B/ns to itself.
	if rates[0] != [2]float64{10, 6} {
		t.Errorf("sampler read rates %v at the churn instant, want settled [10 6]", rates[0])
	}
}
