#!/bin/sh
# Runs the simulator benchmark families and emits BENCH_sim.json, one object
# per benchmark with ns/op, allocs/op and (where reported) sim-ms/run — the
# perf trajectory tracked across PRs.
#
# Usage: scripts/bench_sim.sh [output-file]
set -e
cd "$(dirname "$0")/.."
out="${1:-BENCH_sim.json}"

{
  # 25 iterations so warming the runtime and machine pools stops moving
  # allocs/op: the number tracked across PRs is the steady-state per-grid
  # cost.
  go test -run '^$' -bench 'BenchmarkMultiSeedSweep' -benchmem -benchtime 25x .
  go test -run '^$' -bench 'BenchmarkReallocate|BenchmarkFlowChurn|BenchmarkTimerChurn' -benchmem ./internal/sim/
  go test -run '^$' -bench 'BenchmarkInducedSubgraph' -benchmem ./internal/graph/
  go test -run '^$' -bench 'BenchmarkSnapshotInstall' -benchmem ./internal/rt/
  go test -run '^$' -bench 'BenchmarkBuildSnapshot' -benchmem ./internal/core/
  go test -run '^$' -bench 'BenchmarkRGPPrepare' -benchmem ./internal/policy/
  go test -run '^$' -bench 'BenchmarkMapOntoBullion|BenchmarkFMRefine' -benchmem ./internal/partition/
  go test -run '^$' -bench 'BenchmarkClusterTick|BenchmarkDispatch' -benchmem ./internal/cluster/
  go test -run '^$' -bench 'BenchmarkPermInto' -benchmem ./internal/xrand/
} | awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
  name = $1; nsop = ""; allocs = ""; simms = ""
  sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix: names must be machine-independent
  for (i = 2; i <= NF; i++) {
    if ($(i) == "ns/op")      nsop   = $(i - 1)
    if ($(i) == "allocs/op")  allocs = $(i - 1)
    if ($(i) == "sim-ms/run") simms  = $(i - 1)
  }
  if (nsop == "") next
  if (!first) printf ",\n"
  first = 0
  printf "  {\"name\": \"%s\", \"ns_per_op\": %s", name, nsop
  if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
  if (simms != "")  printf ", \"sim_ms_per_run\": %s", simms
  printf "}"
}
END { print "\n]" }
' > "$out"
echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"
