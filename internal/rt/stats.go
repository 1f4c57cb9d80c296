package rt

import (
	"fmt"
	"slices"
	"strings"

	"numadag/internal/sim"
)

// Result aggregates a run's outcome and the statistics the evaluation
// reports.
type Result struct {
	// Makespan is the simulated completion time of the whole task graph.
	Makespan sim.Time
	// TasksRun counts executed tasks.
	TasksRun int
	// BusyTime is per-core occupied time.
	BusyTime []sim.Time
	// LocalBytes and RemoteBytes classify transferred traffic by whether
	// the home socket matched the executing socket. RemoteByteHops weights
	// remote bytes by hop distance (NUMA pressure metric).
	LocalBytes     int64
	RemoteBytes    int64
	RemoteByteHops int64
	// Steals counts tasks executed away from their picked socket.
	Steals int
	// Deferred counts tasks that passed through the temporary queue.
	Deferred int
	// SocketTasks counts tasks executed per socket.
	SocketTasks []int
	// CutBytes is the TDG edge weight crossing socket boundaries under the
	// final placement (the partitioning objective, measured post-hoc).
	CutBytes int64
	// LoadImbalance is max busy / mean busy across cores - 1.
	LoadImbalance float64
	// MeanPortUtilization and MaxPortUtilization summarize interconnect
	// pressure over the run: the saturation signal behind NUMA collapse.
	MeanPortUtilization float64
	MaxPortUtilization  float64
}

// Clone returns a copy of r whose slices are its own.
func (r *Result) Clone() Result {
	c := *r
	c.BusyTime = slices.Clone(r.BusyTime)
	c.SocketTasks = slices.Clone(r.SocketTasks)
	return c
}

// RemoteRatio returns remote bytes / total bytes (0 when no traffic).
func (r *Result) RemoteRatio() float64 {
	total := r.LocalBytes + r.RemoteBytes
	if total == 0 {
		return 0
	}
	return float64(r.RemoteBytes) / float64(total)
}

// Summary renders a compact human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %v, %d tasks", r.Makespan, r.TasksRun)
	fmt.Fprintf(&b, ", remote %.1f%%", 100*r.RemoteRatio())
	fmt.Fprintf(&b, ", cut %d B", r.CutBytes)
	fmt.Fprintf(&b, ", imbalance %.2f", r.LoadImbalance)
	if r.Steals > 0 {
		fmt.Fprintf(&b, ", %d steals", r.Steals)
	}
	if r.Deferred > 0 {
		fmt.Fprintf(&b, ", %d deferred", r.Deferred)
	}
	return b.String()
}

// finishStats computes the derived statistics when the last task completes.
func (r *Runtime) finishStats() {
	// Cut bytes: TDG edges whose endpoints ran on different sockets.
	for _, t := range r.tasks {
		for _, s := range t.succs {
			if t.Socket != s.Socket {
				r.stats.CutBytes += r.tdg.EdgeWeight(t.ID, s.ID)
			}
		}
	}
	var sum, max sim.Time
	for _, bt := range r.stats.BusyTime {
		sum += bt
		if bt > max {
			max = bt
		}
	}
	if len(r.stats.BusyTime) > 0 && sum > 0 {
		mean := float64(sum) / float64(len(r.stats.BusyTime))
		r.stats.LoadImbalance = float64(max)/mean - 1
	}
	// Port utilization over the run's own [startAt, now], against the
	// traffic baseline begin sampled. On a fresh machine (run starting at
	// the epoch, zero baseline) this is bit-exactly carried / (bandwidth *
	// now), the whole-machine average.
	dur := float64(r.Now() - r.startAt)
	r.portNow = resetSlice(r.portNow, len(r.portBase))
	r.mach.PortTraffic(r.portNow)
	for s := range r.portBase {
		var u float64
		if dur > 0 {
			u = (r.portNow[s] - r.portBase[s]) / (r.mach.Config().LinkBandwidth * dur)
		}
		r.stats.MeanPortUtilization += u / float64(len(r.portBase))
		if u > r.stats.MaxPortUtilization {
			r.stats.MaxPortUtilization = u
		}
	}
}
