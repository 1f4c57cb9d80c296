GO ?= go

.PHONY: build test test-short test-race test-race-experiment test-allocs test-traced test-benchmark bench bench-sim bench-json bench-check fuzz-smoke vet fmt-check ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The experiment worker pool shares TDG snapshots across cells; the race
# detector guards that read-only sharing. CI runs this as its own parallel
# job (the `race` job in .github/workflows/ci.yml) so it does not serialize
# behind the plain test step.
test-race:
	$(GO) test -race ./...

# The experiment's pool is its one scheduler: it sets a cell aside while
# its graph's snapshot is being built or its replicate leader runs, builds
# each shared graph once, and recycles a snapshot's storage once the last
# cell holding it has released its runtime, for the next graph's snapshot
# to fill; runtimes that install one snapshot share the values it keeps
# (rt.Runtime.Shared, RGP's window plan): one builds, and a follower run
# beside it, by a worker with nothing else to claim, waits.
# Repeated race runs of the pool and experiment tests (the two no-wait
# tests among them), of the sharing tests and of the snapshot recycling
# tests exercise more of those interleavings than one pass does. Every
# alternative of each -run pattern must list a test (go test -list), so a
# renamed test cannot leave the gate silently empty. CI runs it in the
# `race` job after `test-race`.
RACE_CORE = TestExperiment|TestPool|TestSnapshotCacheGraphOutlivesPooledBuild
RACE_RT = TestShared|TestRecycledSnapshot|TestGraphStorageOwnership
listed = for pat in $(subst |, ,$(1)); do \
		$(GO) test -list "$$pat" $(2) | grep -q '^Test' || { echo "-run $$pat lists no test in $(2)" >&2; exit 1; }; \
	done

test-race-experiment:
	@$(call listed,$(RACE_CORE),./internal/core)
	@$(call listed,$(RACE_RT),./internal/rt)
	$(GO) test -race -count=10 -run '$(RACE_CORE)' ./internal/core
	$(GO) test -race -count=10 -run '$(RACE_RT)' ./internal/rt

# Blocking allocation-contract gate: deterministic testing.AllocsPerRun
# tests (not benchmarks) asserting steady-state allocation bounds for the
# hot paths — the simulator's flow churn and water-filling (a full fill,
# and bullion-shaped churn that progresses, fills and re-deadlines only the
# churned socket's group), the
# partitioner's fmRefine and DAG symmetrization, a whole MapOnto call (the
# same fixed count for a 256- and a 4096-vertex graph, with and without
# fixed vertices: no per-level or per-bisection allocation), induced-subgraph
# extraction with a warmed scratch, a compacting copy into a DAG that
# already held a graph no smaller (0: a recycled snapshot's graph storage),
# snapshot Install into pooled runtime
# arenas, a full nil-observer simulated run (the tracing hooks must cost
# nothing when no Observer is configured), the RGP window-partitioning
# pass on a graph built in place (no snapshot keeps the plan, so every
# Prepare partitions), policy.New per spec (registry parse and lookup add
# nothing: 0 for LAS, DFIFO and EP, 1 for RGP+LAS, 6 for
# RGP+LAS?matching=random), every small-scale Figure-1 cell and
# socket-ablation cell as a full audited run through the pooled
# machine/engine pair (each row bounded at its own count — the gate the
# nightly bench-check held on the retired root Figure-1 and
# socket-ablation benchmarks; an RGP+LAS cell reads the window plan its
# snapshot keeps), cold task-graph construction (build + snapshot of a
# random layered graph on a pooled prototype runtime, which keeps its build
# storage while Snap copies the graph out, bounded per task), a shared
# graph's full cycle through the experiment's pool (build and snapshot
# into recycled snapshot storage, install into two cells, release both,
# recycle; bounded per task in allocations and in bytes, since the
# snapshot's storage is a few large arrays that a count barely sees),
# an app's build + snapshot (small-scale jacobi, bounded at its count, so
# the builders keep refilling one access list and one name buffer, whose
# views Submit and Alloc copy into storage the graph and the memory manager
# keep, and name tasks and regions without fmt, whose sync.Pool would make
# the count random under -race), an experiment's single-use cell (a random
# layered graph built straight into a pooled runtime's kept graph storage,
# label bytes included, region names and access arena, run, audited and
# released, bounded at one fixed count per cell for a 512- and a 2048-task
# graph, so an allocation per task fails the larger, and per task in bytes:
# an access list kept per task costs well under 0.01 allocations but ~72
# bytes per task), a file workload's build into a pooled runtime (one fixed
# count per build for a 512- and a 2048-task graph: labels and edge numbers
# are resolved with the spec, region names formatted into one buffer), a
# graph rebuild after DAG.Reset (0), and the cluster dispatcher's placement
# step. A named, blocking CI step (`allocs` in ci.yml); a regression fails
# the build, not just the nightly bench trend.
test-allocs:
	$(GO) test -run 'SteadyStateAllocs' -count=1 \
		./internal/sim ./internal/partition ./internal/graph ./internal/rt ./internal/policy \
		./internal/core ./internal/cluster ./internal/workload

# Traced-determinism gate: the full determinism golden sweep with a Tracer
# attached to every cell must reproduce the untraced goldens byte for byte
# (tracing observes, never perturbs). Env-gated because it duplicates the
# whole sweep; CI runs it as its own blocking step after `allocs`.
test-traced:
	NUMADAG_TRACED_GOLDEN=1 $(GO) test -run 'TestDeterminismGoldenTraced' -count=1 .

# The benchmark harness is its own module (benchmark/go.mod, replacing
# numadag with ../), so the root `./...` never builds it: this step catches
# an internal change that breaks it. CI runs it as the blocking `benchmark
# module` step.
test-benchmark:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Mirrors the blocking steps of .github/workflows/ci.yml (the race job runs
# in parallel there; fuzz-smoke is non-blocking and nightly.yml tracks the
# benchmark trajectory).
ci: fmt-check build vet test test-race test-race-experiment test-allocs test-traced test-benchmark

# Full benchmark families (paper figures + ablations).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Simulator hot-path families only: the multi-seed sweep (shared-graph)
# family, plus the sim micro-benchmarks whose allocs/op pin the
# zero-allocation contract.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkMultiSeedSweep' -benchmem .
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim/

# Machine-readable perf trajectory: writes BENCH_sim.json. Regenerate (and
# commit) in perf-relevant PRs; the nightly workflow diffs a fresh run
# against the committed file.
bench-json:
	./scripts/bench_sim.sh

# Re-runs the benchmark families and fails on allocs/op regressions against
# the committed BENCH_sim.json — what .github/workflows/nightly.yml runs on
# schedule.
bench-check:
	./scripts/bench_sim.sh BENCH_sim.new.json
	./scripts/bench_check.sh BENCH_sim.new.json BENCH_sim.json
	rm -f BENCH_sim.new.json

# Short coverage-guided fuzz of the FM refiner (gain-bucket vs heap
# reference), the coarsening contraction (two-pass merge vs the AddEdge
# reference, entry by entry through whole descents), the fluid network's full-vs-incremental reallocation contract
# (batched class-based fill of the churned resource groups vs the eager naive
# ladder run per group, plus the max-min and completion oracles), and the cluster's
# arrival/dispatch loop (bursty same-instant arrivals, zero-length jobs and
# tenant-skewed rates must never stall or reorder the shared clock), the
# workload spec grammar (any spec string must resolve and build at tiny
# scale into an error or a graph under workload.MaxTasks whose summed task
# weight stays within 2^62, never a panic or a hang), and
# the policy spec grammar (any spec string must yield an error or a policy
# whose tiny-jacobi schedule passes the audit, never a panic), the dcsim
# dispatcher spec (any -dispatcher string must yield an error or a
# dispatcher that places and removes 50 jobs on 4 machines, each in range,
# never a panic), the dcsim tenant-mix grammar (any -tenants string and
# total rate must yield an error or tenants whose 20-job audited run
# completes, never a panic or a hang),
# and the DAG-file loader behind the file workload and dagpart -in (any
# bytes must yield an error or an acyclic graph within the workload caps
# that partitions in two, never a panic).
# The seed corpora also run in plain `make test`; CI uploads any new
# crashers as workflow artifacts.
fuzz-smoke:
	$(GO) test -fuzz=FuzzFMRefine -fuzztime=15s ./internal/partition
	$(GO) test -fuzz=FuzzCoarsen -fuzztime=15s ./internal/partition
	$(GO) test -fuzz=FuzzReallocate -fuzztime=15s ./internal/sim
	$(GO) test -fuzz=FuzzArrivals -fuzztime=15s ./internal/cluster
	$(GO) test -fuzz=FuzzTenantMix -fuzztime=15s ./internal/cluster
	$(GO) test -fuzz=FuzzDispatcherSpec -fuzztime=15s ./internal/cluster
	$(GO) test -fuzz=FuzzWorkloadSpec -fuzztime=15s ./internal/workload
	$(GO) test -fuzz=FuzzDAGFile -fuzztime=15s ./internal/workload
	$(GO) test -fuzz=FuzzPolicySpec -fuzztime=15s ./internal/policy

# BENCH_sim.json is tracked (the perf trajectory across PRs) and must
# survive a clean.
clean:
	rm -f BENCH_sim.new.json *.test *.out *.prof
