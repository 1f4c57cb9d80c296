package rt

// Inspection helpers only the tests call. Production reads a run through
// its Result and the Observer hooks, so these live with the tests.

// Barriers returns the number of barriers inserted.
func (r *Runtime) Barriers() int { return r.barriers }

// DeferredCount returns the tasks currently parked in the temporary queue.
func (r *Runtime) DeferredCount() int { return len(r.tempQ) }

// NumSuccs returns the number of distinct dependent tasks. Successor lists
// are linked from the TDG when Run or Start begins; before that NumSuccs
// reports zero (Runtime.Graph().OutDegree counts them at any time).
func (t *Task) NumSuccs() int { return len(t.succs) }

// PendingDeps returns the number of unresolved predecessors.
func (t *Task) PendingDeps() int { return t.nDeps }
