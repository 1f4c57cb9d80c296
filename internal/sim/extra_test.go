package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// utilization returns the average fraction of r's capacity used over
// [0, now], from the bytes it has carried.
func utilization(r *Resource, now Time) float64 {
	if now <= 0 {
		return 0
	}
	return r.Carried(now) / (r.Capacity() * float64(now))
}

func TestResourceUtilizationSingleFlow(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 10)
	n.StartFlow(1000, []*Resource{r}, nil)
	e.Run() // drains at t=100
	// The resource ran at full rate for the whole run: utilization 1.0.
	if u := utilization(r, e.Now()); math.Abs(u-1.0) > 0.02 {
		t.Fatalf("utilization = %v, want ~1.0", u)
	}
	if c := r.Carried(e.Now()); math.Abs(c-1000) > 1 {
		t.Fatalf("carried = %v, want 1000", c)
	}
}

func TestResourceUtilizationHalfIdle(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 10)
	n.StartFlow(1000, []*Resource{r}, nil) // busy [0,100]
	e.At(200, func() {})                   // extend the run to t=200
	e.Run()
	if u := utilization(r, 200); math.Abs(u-0.5) > 0.02 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestResourceUtilizationCappedFlow(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 10)
	n.StartFlowCapped(500, []*Resource{r}, 5, nil) // rate 5 for 100ns
	e.Run()
	if u := utilization(r, e.Now()); math.Abs(u-0.5) > 0.02 {
		t.Fatalf("capped utilization = %v, want ~0.5", u)
	}
}

func TestUtilizationZeroTime(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 10)
	if utilization(r, 0) != 0 {
		t.Fatal("utilization at t=0 not 0")
	}
	_ = e
}

// Property: carried bytes equal completed volume for any one-resource
// workload (conservation through the accounting path).
func TestPropertyCarriedMatchesVolume(t *testing.T) {
	f := func(vols [5]uint16, caps [5]uint8) bool {
		e := NewEngine()
		n := NewNet(e)
		r := n.NewResource("r", 8)
		total := 0.0
		for i, v := range vols {
			b := float64(v%4096) + 1
			total += b
			cap := float64(caps[i]%7) + 1
			n.StartFlowCapped(b, []*Resource{r}, cap, nil)
		}
		e.Run()
		return math.Abs(r.Carried(e.Now())-total) < total*1e-6+float64(len(vols))*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestManyStaggeredFlowsDeterministic(t *testing.T) {
	run := func() Time {
		e := NewEngine()
		n := NewNet(e)
		r1 := n.NewResource("a", 6)
		r2 := n.NewResource("b", 4)
		for i := 0; i < 50; i++ {
			i := i
			e.At(Time(i*13), func() {
				path := []*Resource{r1}
				if i%3 == 0 {
					path = []*Resource{r1, r2}
				}
				n.StartFlowCapped(float64(500+i*37), path, float64(1+i%5), nil)
			})
		}
		return e.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic drain: %v vs %v", a, b)
	}
}
