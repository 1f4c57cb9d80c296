package core

import (
	"sync"

	"numadag/internal/machine"
	"numadag/internal/sim"
)

// Machine/engine pooling. machine.New costs ~55 objects (engine, Net,
// resources, precomputed path tables) per run — the largest remaining
// per-run constant after the runtime pool (ROADMAP "finish the 0-alloc
// cell"). Machines for equal configs are interchangeable once Reset, so
// runWith draws them from per-config pools and returns them alongside
// r.Release.
//
// Pools are keyed by a comparable digest of the full Config — every scalar
// field verbatim plus an FNV-1a hash of the Distance matrix (the one
// non-comparable field). Two configs with equal digests build identical
// machines except under a 64-bit hash collision between distance matrices
// that agree on every other field; machine configs are a handful of presets
// plus occasional hand-built topologies, so the collision space is empty in
// practice. Computing the key allocates nothing: pool lookups stay off the
// allocs/op budget they exist to cut.

type machineKey struct {
	name           string
	sockets        int
	coresPerSocket int
	localLatency   sim.Time
	hopLatency     sim.Time
	memBandwidth   float64
	linkBandwidth  float64
	coreFlops      float64
	memParallelism float64
	distHash       uint64
}

func keyOf(cfg *machine.Config) machineKey {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	for _, row := range cfg.Distance {
		mix(uint64(len(row)))
		for _, d := range row {
			mix(uint64(d))
		}
	}
	return machineKey{
		name:           cfg.Name,
		sockets:        cfg.Sockets,
		coresPerSocket: cfg.CoresPerSocket,
		localLatency:   cfg.LocalLatency,
		hopLatency:     cfg.HopLatency,
		memBandwidth:   cfg.MemBandwidth,
		linkBandwidth:  cfg.LinkBandwidth,
		coreFlops:      cfg.CoreFlops,
		memParallelism: cfg.MemParallelism,
		distHash:       h,
	}
}

// machinePools maps machineKey -> *sync.Pool of *machine.Machine.
var machinePools sync.Map

// acquireMachine returns a reset machine for cfg, recycled when one is
// pooled and freshly constructed otherwise.
func acquireMachine(cfg machine.Config) *machine.Machine {
	key := keyOf(&cfg)
	p, ok := machinePools.Load(key)
	if !ok {
		p, _ = machinePools.LoadOrStore(key, &sync.Pool{})
	}
	if m, ok := p.(*sync.Pool).Get().(*machine.Machine); ok && m != nil {
		return m
	}
	return machine.New(cfg, sim.NewEngine())
}

// releaseMachine resets m and returns it to its config's pool. Callers must
// not touch m afterwards; anything still holding the machine (an Observer
// that captured it, a post-run utilization probe) means the run should skip
// the release and let the machine be garbage.
func releaseMachine(m *machine.Machine) {
	m.Reset()
	cfg := m.Config()
	if p, ok := machinePools.Load(keyOf(&cfg)); ok {
		p.(*sync.Pool).Put(m)
	}
}
