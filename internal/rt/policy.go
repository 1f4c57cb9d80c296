package rt

// Placement constants a Policy may return from PickSocket besides a
// concrete socket index.
const (
	// AnySocket asks the runtime to place the task on the next CPU in
	// cyclic order, ignoring sockets entirely (the DFIFO behaviour).
	AnySocket = -1
	// DeferPlacement parks the task in the temporary queue; the runtime
	// re-offers it to the policy after the policy calls ReleaseDeferred
	// (used while a window partition is still being computed, §2.2).
	DeferPlacement = -2
)

// Policy decides where ready tasks run. Implementations must be
// deterministic given the runtime's seeded Rand, and reach randomness and
// the seed only through Runtime.Rand (Runtime.Options returns the options
// with Seed zeroed): Rand calls are what Runtime.SeedUsed reports, and a
// grid reuses one replicate's result for the others when a run never made
// one. PickSocket is invoked
// every time a task becomes ready (and again for each re-offer of a
// deferred task); it returns a socket index, AnySocket or DeferPlacement.
type Policy interface {
	Name() string
	PickSocket(rt *Runtime, t *Task) int
}

// Preparer is implemented by policies that need a hook before execution
// starts (e.g. RGP partitions the first window here and charges its
// simulated cost).
type Preparer interface {
	Prepare(rt *Runtime)
}

// Observer receives execution lifecycle callbacks; trace sinks implement it.
// An Observer may additionally implement TransferObserver and StealObserver;
// the runtime type-asserts once at construction and invokes the extended
// callbacks only when implemented, so the base interface stays small and
// existing observers keep working. Observers must treat every callback as
// read-only: they run inside the event loop and anything they change
// (placement, queues, RNG state) would perturb the simulation.
type Observer interface {
	TaskStart(t *Task)
	TaskEnd(t *Task)
}

// TransferObserver is an optional Observer extension receiving the data
// movement of each task phase: TransferStart fires when the runtime launches
// a transfer of bytes between memory homed on socket `home` and task t's
// executing socket `exec` (reads pull from home, writes push to it), and
// TransferEnd fires at the instant the last byte lands, before the phase
// continuation runs. Only non-empty transfers are reported; zero-byte
// phases complete without callbacks.
type TransferObserver interface {
	TransferStart(t *Task, home, exec int, bytes int64)
	TransferEnd(t *Task, home, exec int, bytes int64)
}

// StealObserver is an optional Observer extension notified when an idle
// core robs a task across sockets: victim is the socket the task was queued
// on, thief the socket of the stealing core. The callback runs at the steal
// instant, before the task starts executing (its Core/Socket fields are not
// yet assigned).
type StealObserver interface {
	TaskStolen(t *Task, victim, thief int)
}

// TaskDoneHook is implemented by policies that react to completions. The
// hook runs at the task's completion instant, before dependents are
// released.
type TaskDoneHook interface {
	TaskDone(r *Runtime, t *Task)
}

// StealVeto is implemented by policies whose placement is a hard contract:
// if VetoSteal returns true, the runtime never steals across sockets, no
// matter what Options.Steal says (intra-socket stealing stays on). The EP
// configuration uses this — an expert's hardcoded schedule is not advisory.
type StealVeto interface {
	VetoSteal() bool
}
