package rt

import (
	"fmt"

	"numadag/internal/graph"
)

// AuditSchedule verifies the executed schedule against the task graph's
// semantics after Run completes. It checks that
//
//  1. every task ran exactly once and has a coherent timeline,
//  2. every dependency edge was respected (predecessor finished before the
//     successor started),
//  3. no core ran two tasks at once, and
//  4. every task ran on the socket its core belongs to.
//
// It returns the first violation found, or nil. Tests and the example
// programs use it as an end-to-end correctness oracle for the runtime.
func (r *Runtime) AuditSchedule() error {
	if r.remaining != 0 {
		return fmt.Errorf("rt: audit before run completed (%d tasks pending)", r.remaining)
	}
	for _, t := range r.tasks {
		if t.state != stateDone {
			return fmt.Errorf("rt: task %s never completed", t.Label())
		}
		if t.EndAt < t.StartAt || t.StartAt < t.ReadyAt {
			return fmt.Errorf("rt: task %s has incoherent timeline ready=%v start=%v end=%v",
				t.Label(), t.ReadyAt, t.StartAt, t.EndAt)
		}
		if t.Core < 0 || t.Core >= r.mach.Cores() {
			return fmt.Errorf("rt: task %s ran on core %d", t.Label(), t.Core)
		}
		if r.mach.SocketOf(t.Core) != t.Socket {
			return fmt.Errorf("rt: task %s socket %d does not own core %d", t.Label(), t.Socket, t.Core)
		}
	}
	// Dependencies: use the TDG, not the succs lists, so the audit is
	// independent of the runtime's internal bookkeeping.
	for _, t := range r.tasks {
		var err error
		r.tdg.Succs(t.ID, func(to graph.NodeID, _ int64) {
			succ := r.tasks[to]
			if err == nil && succ.StartAt < t.EndAt {
				err = fmt.Errorf("rt: dependency violated: %s (ends %v) -> %s (starts %v)",
					t.Label(), t.EndAt, succ.Label(), succ.StartAt)
			}
		})
		if err != nil {
			return err
		}
	}
	// Core exclusivity: sort each core's tasks by start and check overlap.
	// The per-core lists come from the runtime's pooled audit scratch.
	r.auditCore = resetQueues(r.auditCore, r.mach.Cores())
	perCore := r.auditCore
	for _, t := range r.tasks {
		perCore[t.Core] = append(perCore[t.Core], t)
	}
	for c, ts := range perCore {
		// Insertion sort by StartAt (per-core lists are modest).
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j].StartAt < ts[j-1].StartAt; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		for i := 1; i < len(ts); i++ {
			if ts[i].StartAt < ts[i-1].EndAt {
				return fmt.Errorf("rt: core %d ran %s and %s concurrently", c, ts[i-1].Label(), ts[i].Label())
			}
		}
	}
	return nil
}
