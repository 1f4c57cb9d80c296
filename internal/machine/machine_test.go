package machine

import (
	"math"
	"strings"
	"testing"

	"numadag/internal/sim"
)

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{BullionS16(), TwoSocketXeon(), FourSocket(), Uniform(4, 4)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestBullionTopology(t *testing.T) {
	cfg := BullionS16()
	if cfg.Sockets != 8 || cfg.CoresPerSocket != 4 {
		t.Fatalf("bullion S16 is 8x4, got %dx%d", cfg.Sockets, cfg.CoresPerSocket)
	}
	m := New(cfg, sim.NewEngine())
	if m.Hops(0, 0) != 0 {
		t.Error("self distance not 0")
	}
	if m.Hops(0, 1) != 1 {
		t.Error("same-module distance not 1")
	}
	if m.Hops(0, 2) != 2 || m.Hops(1, 7) != 2 {
		t.Error("cross-module distance not 2")
	}
	if m.Hops(6, 7) != 1 {
		t.Error("last module pair distance not 1")
	}
}

func TestValidationErrors(t *testing.T) {
	base := TwoSocketXeon()
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero sockets", func(c *Config) { c.Sockets = 0 }},
		{"zero cores", func(c *Config) { c.CoresPerSocket = 0 }},
		{"negative latency", func(c *Config) { c.LocalLatency = -1 }},
		{"zero bandwidth", func(c *Config) { c.MemBandwidth = 0 }},
		{"zero link", func(c *Config) { c.LinkBandwidth = 0 }},
		{"zero flops", func(c *Config) { c.CoreFlops = 0 }},
		{"zero mlp", func(c *Config) { c.MemParallelism = 0 }},
		{"bad matrix size", func(c *Config) { c.Distance = [][]int{{0}} }},
		{"nonzero diagonal", func(c *Config) {
			c.Distance = [][]int{{1, 1}, {1, 0}}
		}},
		{"asymmetric", func(c *Config) {
			c.Distance = [][]int{{0, 1}, {2, 0}}
		}},
	}
	for _, mu := range mutations {
		cfg := base
		mu.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", mu.name)
		}
	}
}

// TestValidateRejectsNonFinite pins that every bandwidth and rate parameter
// is finite: NaN fails every comparison, so a `<= 0` check alone let NaN
// through (a NaN CoreFlops made a negative task delay, a NaN MemParallelism
// a NaN flow cap, a NaN MemBandwidth a silent garbage makespan), and +Inf
// capacities make the fill's quotients non-finite. The error names the
// field.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		ptr  func(*Config) *float64
	}{
		{"MemBandwidth", func(c *Config) *float64 { return &c.MemBandwidth }},
		{"LinkBandwidth", func(c *Config) *float64 { return &c.LinkBandwidth }},
		{"CoreFlops", func(c *Config) *float64 { return &c.CoreFlops }},
		{"MemParallelism", func(c *Config) *float64 { return &c.MemParallelism }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := BullionS16()
			*f.ptr(&cfg) = v
			err := cfg.Validate()
			if err == nil {
				t.Errorf("%s = %v: Validate accepted it", f.name, v)
			} else if !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: error %q does not name the field", f.name, v, err)
			}
		}
	}
}

func TestSocketCoreMapping(t *testing.T) {
	m := New(BullionS16(), sim.NewEngine())
	if m.Cores() != 32 {
		t.Fatalf("cores = %d, want 32", m.Cores())
	}
	for core := 0; core < m.Cores(); core++ {
		s := m.SocketOf(core)
		lo, hi := m.CoresOf(s)
		if core < lo || core >= hi {
			t.Fatalf("core %d mapped to socket %d with range [%d,%d)", core, s, lo, hi)
		}
	}
	if s := m.SocketOf(0); s != 0 {
		t.Errorf("core 0 on socket %d", s)
	}
	if s := m.SocketOf(31); s != 7 {
		t.Errorf("core 31 on socket %d", s)
	}
}

func TestLatencyMonotoneInHops(t *testing.T) {
	m := New(BullionS16(), sim.NewEngine())
	l0 := m.Latency(0, 0)
	l1 := m.Latency(0, 1)
	l2 := m.Latency(0, 2)
	if !(l0 < l1 && l1 < l2) {
		t.Fatalf("latency not monotone: local %v, 1-hop %v, 2-hop %v", l0, l1, l2)
	}
	if l0 != 90 {
		t.Errorf("local latency = %v, want 90", l0)
	}
}

func TestPathLocalVsRemote(t *testing.T) {
	m := New(BullionS16(), sim.NewEngine())
	if got := len(m.Path(3, 3)); got != 1 {
		t.Errorf("local path crosses %d resources, want 1 (the controller)", got)
	}
	if got := len(m.Path(3, 5)); got != 2 {
		t.Errorf("remote path crosses %d resources, want 2 (mc + home port)", got)
	}
}

func TestTransferLocalFasterThanRemote(t *testing.T) {
	run := func(home, exec int) sim.Time {
		eng := sim.NewEngine()
		m := New(BullionS16(), eng)
		var done sim.Time
		m.Transfer(home, exec, 1<<20, func() { done = eng.Now() })
		eng.Run()
		return done
	}
	local := run(0, 0)
	remote1 := run(1, 0) // same module
	remote2 := run(2, 0) // cross module
	if !(local < remote1 && remote1 < remote2) {
		t.Fatalf("transfer times not ordered: local %v, 1-hop %v, 2-hop %v", local, remote1, remote2)
	}
}

func TestTransferZeroBytes(t *testing.T) {
	eng := sim.NewEngine()
	m := New(TwoSocketXeon(), eng)
	done := false
	m.Transfer(0, 1, 0, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("zero-byte transfer never completed")
	}
	if eng.Now() != 0 {
		t.Fatalf("zero-byte transfer advanced clock to %v", eng.Now())
	}
}

func TestTransferNegativePanics(t *testing.T) {
	eng := sim.NewEngine()
	m := New(TwoSocketXeon(), eng)
	defer func() {
		if recover() == nil {
			t.Fatal("negative transfer did not panic")
		}
	}()
	m.Transfer(0, 0, -5, nil)
}

func TestRemoteContentionOnLink(t *testing.T) {
	// A single 2-hop transfer runs at the core's concurrency limit
	// (10 * 64B / 160ns = 4 B/ns). Eight of them want 32 B/ns through
	// socket 2's 12 B/ns port, so each drops to 1.5 B/ns: the drain takes
	// ~2.7x as long as a solo transfer.
	run := func(flows int) sim.Time {
		eng := sim.NewEngine()
		m := New(BullionS16(), eng)
		for i := 0; i < flows; i++ {
			m.Transfer(2, 0, 8<<20, nil)
		}
		return eng.Run()
	}
	single, eight := run(1), run(8)
	if eight <= single {
		t.Fatalf("contended link not slower: single %v, eight %v", single, eight)
	}
	ratio := float64(eight) / float64(single)
	if ratio < 2.4 || ratio > 3.0 {
		t.Errorf("contention ratio %.3f, want ~2.67", ratio)
	}
}

func TestCoreBandwidthNUMAGap(t *testing.T) {
	m := New(BullionS16(), sim.NewEngine())
	local := m.CoreBandwidth(0, 0)
	hop2 := m.CoreBandwidth(0, 2)
	if gap := local / hop2; gap < 1.4 || gap > 2.2 {
		t.Errorf("local/2-hop core bandwidth gap %.2f, want ~1.8", gap)
	}
}

func TestLocalControllerSaturation(t *testing.T) {
	// 4 local cores at ~7.1 B/ns want 28.4 through a 30 B/ns controller:
	// no contention. 8 want 56.9: the controller caps them at 3.75 each.
	run := func(flows int) sim.Time {
		eng := sim.NewEngine()
		m := New(BullionS16(), eng)
		for i := 0; i < flows; i++ {
			m.Transfer(0, 0, 8<<20, nil)
		}
		return eng.Run()
	}
	four, eight := run(4), run(8)
	ratio := float64(eight) / float64(four)
	if ratio < 1.5 || ratio > 2.2 {
		t.Errorf("controller saturation ratio %.3f, want ~1.9", ratio)
	}
}

func TestLocalControllersIndependent(t *testing.T) {
	// Local transfers on different sockets must not contend.
	eng := sim.NewEngine()
	m := New(BullionS16(), eng)
	var t0, t1 sim.Time
	m.Transfer(0, 0, 16<<20, func() { t0 = eng.Now() })
	m.Transfer(1, 1, 16<<20, func() { t1 = eng.Now() })
	eng.Run()

	eng2 := sim.NewEngine()
	m2 := New(BullionS16(), eng2)
	var solo sim.Time
	m2.Transfer(0, 0, 16<<20, func() { solo = eng2.Now() })
	eng2.Run()

	if t0 != solo || t1 != solo {
		t.Fatalf("independent sockets contended: %v/%v vs solo %v", t0, t1, solo)
	}
}

func TestComputeTime(t *testing.T) {
	m := New(BullionS16(), sim.NewEngine())
	if got := m.ComputeTime(8000); got != 1000 {
		t.Errorf("8000 flops at 8 GF/s = %v, want 1000ns", got)
	}
	if got := m.ComputeTime(0); got != 0 {
		t.Errorf("0 flops = %v, want 0", got)
	}
	if got := m.ComputeTime(-5); got != 0 {
		t.Errorf("negative flops = %v, want 0", got)
	}
}

func TestUniformMachineHasNoNUMAGap(t *testing.T) {
	run := func(home, exec int) sim.Time {
		eng := sim.NewEngine()
		m := New(Uniform(4, 4), eng)
		m.Transfer(home, exec, 1<<20, nil)
		return eng.Run()
	}
	if local, remote := run(0, 0), run(1, 0); local != remote {
		t.Fatalf("uniform machine has NUMA gap: local %v vs remote %v", local, remote)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid config")
		}
	}()
	New(Config{}, sim.NewEngine())
}
