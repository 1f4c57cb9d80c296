// Package machine models the NUMA hardware the simulation runs on: sockets,
// cores, per-socket memory controllers and the inter-socket interconnect.
//
// The model is deliberately at the granularity the paper's techniques care
// about: a core belongs to a socket; a memory page has a home socket;
// touching remote memory pays (a) extra latency proportional to the hop
// distance and (b) bandwidth shared on the home socket's memory controller
// and on the interconnect links along the way. Cache hierarchies are folded
// into the per-byte cost constants — the scheduling policies under study act
// at page/socket granularity, not cache-line granularity.
package machine

import (
	"fmt"
	"math"
	"strconv"

	"numadag/internal/sim"
)

// Config describes a NUMA machine. All bandwidths are bytes per nanosecond
// (numerically GB/s); latencies are nanoseconds.
type Config struct {
	Name           string
	Sockets        int
	CoresPerSocket int

	// Distance is the NUMA hop matrix: Distance[i][j] is the number of
	// interconnect hops from socket i to socket j (0 on the diagonal).
	// If nil, a flat all-ones (off-diagonal) matrix is used.
	Distance [][]int

	// LocalLatency is the DRAM access latency within a socket.
	// HopLatency is added per interconnect hop.
	LocalLatency sim.Time
	HopLatency   sim.Time

	// MemBandwidth is the per-socket memory-controller bandwidth.
	// LinkBandwidth is the per-socket interconnect port bandwidth
	// (all remote traffic in or out of a socket crosses its port).
	MemBandwidth  float64
	LinkBandwidth float64

	// CoreFlops is the per-core compute throughput in FLOP per nanosecond
	// (numerically GFLOP/s). Task compute work in FLOPs divides by this.
	CoreFlops float64

	// MemParallelism models how many outstanding cache-line requests a core
	// sustains (MLP): the per-line latency cost divides by it.
	MemParallelism float64
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	switch {
	case c.Sockets <= 0:
		return fmt.Errorf("machine: %d sockets", c.Sockets)
	case c.CoresPerSocket <= 0:
		return fmt.Errorf("machine: %d cores per socket", c.CoresPerSocket)
	case c.LocalLatency < 0 || c.HopLatency < 0:
		return fmt.Errorf("machine: negative latency")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MemBandwidth", c.MemBandwidth},
		{"LinkBandwidth", c.LinkBandwidth},
		{"CoreFlops", c.CoreFlops},
		{"MemParallelism", c.MemParallelism},
	} {
		// NaN fails every comparison, so test for the valid range.
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("machine: %s %v is not a positive finite number", f.name, f.v)
		}
	}
	if c.Distance != nil {
		if len(c.Distance) != c.Sockets {
			return fmt.Errorf("machine: distance matrix has %d rows for %d sockets", len(c.Distance), c.Sockets)
		}
		for i, row := range c.Distance {
			if len(row) != c.Sockets {
				return fmt.Errorf("machine: distance row %d has %d entries", i, len(row))
			}
			if row[i] != 0 {
				return fmt.Errorf("machine: distance[%d][%d] = %d, want 0", i, i, row[i])
			}
			for j, d := range row {
				if d < 0 {
					return fmt.Errorf("machine: negative distance[%d][%d]", i, j)
				}
				if c.Distance[j][i] != d {
					return fmt.Errorf("machine: asymmetric distance between %d and %d", i, j)
				}
			}
		}
	}
	return nil
}

// TotalCores returns Sockets * CoresPerSocket.
func (c *Config) TotalCores() int { return c.Sockets * c.CoresPerSocket }

// BullionS16 returns the paper's evaluation machine: an Atos Bull bullion
// S16 configured with 8 sockets and 4 cores per socket. The S16 glues
// 2-socket modules through the Bull Coherence Switch, so sockets in the same
// module are one hop apart and sockets in different modules are two hops
// (through the BCS). Constants follow published figures for Xeon E7 v2-class
// parts: ~90 ns local DRAM, ~+115 ns per hop, ~ 30 GB/s per-socket stream
// bandwidth and QPI-class ~12 GB/s interconnect ports.
func BullionS16() Config {
	const sockets = 8
	dist := make([][]int, sockets)
	for i := range dist {
		dist[i] = make([]int, sockets)
		for j := range dist[i] {
			switch {
			case i == j:
				dist[i][j] = 0
			case i/2 == j/2: // same 2-socket module
				dist[i][j] = 1
			default: // across the BCS
				dist[i][j] = 2
			}
		}
	}
	return Config{
		Name:           "bullion-s16-8x4",
		Sockets:        sockets,
		CoresPerSocket: 4,
		Distance:       dist,
		LocalLatency:   90,
		HopLatency:     35, // effective, after prefetch: penalty is mostly bandwidth
		MemBandwidth:   30.0,
		LinkBandwidth:  12.0,
		CoreFlops:      8.0, // ~2.5 GHz with modest SIMD, per core
		MemParallelism: 10,
	}
}

// TwoSocketXeon returns a common 2-socket node for scaling ablations.
func TwoSocketXeon() Config {
	return Config{
		Name:           "xeon-2x8",
		Sockets:        2,
		CoresPerSocket: 8,
		LocalLatency:   85,
		HopLatency:     50,
		MemBandwidth:   40.0,
		LinkBandwidth:  16.0,
		CoreFlops:      8.0,
		MemParallelism: 10,
	}
}

// FourSocket returns a 4-socket glueless node (fully connected, one hop).
func FourSocket() Config {
	return Config{
		Name:           "foursocket-4x4",
		Sockets:        4,
		CoresPerSocket: 4,
		LocalLatency:   90,
		HopLatency:     70,
		MemBandwidth:   34.0,
		LinkBandwidth:  14.0,
		CoreFlops:      8.0,
		MemParallelism: 10,
	}
}

// Uniform returns a machine with no NUMA effects at all: zero hop latency
// and effectively infinite controllers and links, so a transfer's duration
// depends only on the core's own concurrency limit, never on placement.
// It is the control configuration: every placement policy must converge on
// it (TestUniformMachineEqualizesPolicies relies on this).
// ByName returns a preset topology by its CLI name — the shared vocabulary
// of every command's -machine flag.
func ByName(name string) (Config, error) {
	switch name {
	case "bullion":
		return BullionS16(), nil
	case "2socket":
		return TwoSocketXeon(), nil
	case "4socket":
		return FourSocket(), nil
	case "uniform":
		return Uniform(8, 4), nil
	default:
		return Config{}, fmt.Errorf("machine: unknown machine %q (bullion, 2socket, 4socket, uniform)", name)
	}
}

func Uniform(sockets, coresPerSocket int) Config {
	return Config{
		Name:           fmt.Sprintf("uniform-%dx%d", sockets, coresPerSocket),
		Sockets:        sockets,
		CoresPerSocket: coresPerSocket,
		LocalLatency:   90,
		HopLatency:     0,
		MemBandwidth:   1 << 20, // uncontended
		LinkBandwidth:  1 << 20, // uncontended
		CoreFlops:      8.0,
		MemParallelism: 10,
	}
}

// Machine is a Config instantiated over a simulation engine: it owns the
// contended resources (memory controllers and interconnect ports) and
// answers latency/path queries for the runtime.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	net   *sim.Net
	mcs   []*sim.Resource // one memory controller per socket
	ports []*sim.Resource // one interconnect port per socket
	// paths[home][exec] is the precomputed contended-resource path of a
	// transfer from memory homed on socket home to a core on socket exec.
	// Transfers are the simulator's hottest call site; sharing immutable
	// path slices keeps them allocation-free.
	paths [][][]*sim.Resource
}

// New instantiates the config over eng. It panics on an invalid config
// (construction happens once, at experiment setup; failing loudly there is
// the correct behaviour).
func New(cfg Config, eng *sim.Engine) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{cfg: cfg, eng: eng, net: sim.NewNet(eng)}
	for s := 0; s < cfg.Sockets; s++ {
		m.mcs = append(m.mcs, m.net.NewResource("mc"+strconv.Itoa(s), cfg.MemBandwidth))
		m.ports = append(m.ports, m.net.NewResource("port"+strconv.Itoa(s), cfg.LinkBandwidth))
	}
	m.paths = make([][][]*sim.Resource, cfg.Sockets)
	for home := 0; home < cfg.Sockets; home++ {
		m.paths[home] = make([][]*sim.Resource, cfg.Sockets)
		for exec := 0; exec < cfg.Sockets; exec++ {
			if home == exec {
				m.paths[home][exec] = []*sim.Resource{m.mcs[home]}
			} else {
				m.paths[home][exec] = []*sim.Resource{m.mcs[home], m.ports[home]}
			}
		}
	}
	return m
}

// Reset rewinds the machine for a fresh run: the engine's clock and event
// arena go back to zero (keeping the Net's registered flush hook) and the
// fluid network drops all flows and utilization integrals. The precomputed
// resource paths and the Config are untouched, so a pooled machine is
// observationally identical to a newly constructed one — this is what lets
// core recycle the machine/engine pair alongside the runtime pool.
func (m *Machine) Reset() {
	m.eng.Reset()
	m.net.Reset()
}

// Config returns the machine description.
func (m *Machine) Config() Config { return m.cfg }

// Engine returns the driving simulation engine.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Net returns the fluid-flow network (exposed for statistics).
func (m *Machine) Net() *sim.Net { return m.net }

// Controllers returns the per-socket memory-controller resources, indexed
// by socket. The slice is the machine's own and must not be mutated.
func (m *Machine) Controllers() []*sim.Resource { return m.mcs }

// Ports returns the per-socket interconnect-port resources, indexed by
// socket. The slice is the machine's own and must not be mutated.
func (m *Machine) Ports() []*sim.Resource { return m.ports }

// Sockets returns the socket count.
func (m *Machine) Sockets() int { return m.cfg.Sockets }

// Cores returns the total core count.
func (m *Machine) Cores() int { return m.cfg.TotalCores() }

// SocketOf maps a core index to its socket.
func (m *Machine) SocketOf(core int) int { return core / m.cfg.CoresPerSocket }

// CoresOf returns the core index range [lo, hi) belonging to socket s.
func (m *Machine) CoresOf(s int) (lo, hi int) {
	return s * m.cfg.CoresPerSocket, (s + 1) * m.cfg.CoresPerSocket
}

// Hops returns the interconnect hop count between two sockets.
func (m *Machine) Hops(from, to int) int {
	if from == to {
		return 0
	}
	if m.cfg.Distance != nil {
		return m.cfg.Distance[from][to]
	}
	return 1
}

// Latency returns the DRAM access latency from a core on socket `from`
// to memory homed on socket `to`.
func (m *Machine) Latency(from, to int) sim.Time {
	return m.cfg.LocalLatency + sim.Time(m.Hops(from, to))*m.cfg.HopLatency
}

// Path returns the contended resources a transfer from memory homed on
// socket `home` to a core on socket `exec` crosses: the home memory
// controller always, plus the home socket's interconnect port if remote —
// the port is where a socket's memory is served to the rest of the machine,
// and saturating it is the dominant NUMA collapse mode on glued systems
// like the bullion (every socket's port drowns when placement scatters).
// The returned slice is shared and must not be mutated.
func (m *Machine) Path(home, exec int) []*sim.Resource {
	return m.paths[home][exec]
}

// CoreBandwidth returns the bandwidth a single core can sustain against
// memory homed on socket `home` when running on socket `exec`, before any
// sharing: the classic concurrency limit MLP * linesize / latency. This is
// what makes remote traffic slow even on an idle interconnect — the longer
// round trip drains the core's outstanding-miss window.
func (m *Machine) CoreBandwidth(exec, home int) float64 {
	return m.cfg.MemParallelism * 64.0 / float64(m.Latency(exec, home))
}

// Transfer starts a fluid flow of the given byte volume from memory homed on
// socket home to a core on socket exec and calls done when the last byte
// lands. The flow's rate is capped by the core's concurrency-limited
// bandwidth (see CoreBandwidth) and further shared max-min fairly on the
// home memory controller and the interconnect ports. bytes == 0 completes
// after zero simulated time.
func (m *Machine) Transfer(home, exec int, bytes int64, done func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("machine: negative transfer of %d bytes", bytes))
	}
	if bytes == 0 {
		m.eng.After(0, done)
		return
	}
	m.net.StartFlowCapped(float64(bytes), m.Path(home, exec), m.CoreBandwidth(exec, home), done)
}

// PortTraffic fills out (len Sockets) with each socket port's carried
// bytes progressed to the current time. Paired samples bound a window:
// (carried(t1) - carried(t0)) / (LinkBandwidth * (t1 - t0)) is the port's
// utilization over [t0, t1] — how a run measures its own interconnect
// pressure on a machine that earlier runs have used.
func (m *Machine) PortTraffic(out []float64) {
	now := m.eng.Now()
	for s, p := range m.ports {
		out[s] = p.Carried(now)
	}
}

// ComputeTime converts task FLOPs to core time.
func (m *Machine) ComputeTime(flops float64) sim.Time {
	if flops <= 0 {
		return 0
	}
	return sim.Time(flops / m.cfg.CoreFlops)
}
