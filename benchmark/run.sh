#!/usr/bin/env bash
# Builds the benchmark command from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload fig1-paper --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --runs 5 --trace 1      # every workload, orchestrated
#
# Everything the build writes (binary, Go build cache, temporary files, Go
# telemetry) stays under .bench_build in the current directory, and the Go
# toolchain is kept from downloading anything.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C benchmark build -o "$build/numadag-benchmark" .
exec "$build/numadag-benchmark" "$@"
