#!/usr/bin/env bash
# Builds coachd and the benchmark from source into .bench_build/ of the
# checkout, then runs the benchmark with the arguments given, e.g.
#   bash perfbench/run.sh --workload sim-sparse --seed 1 --seconds 20 --trace 0
# Run it from the root of the repository. The Go build cache and every
# output stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config GOTMPDIR=$build/tmp
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0
{
	go build -o "$build/bin/coachd" ./cmd/coachd
	(cd perfbench && go build -o "$build/bin/perfbench" .)
} >&2
exec "$build/bin/perfbench" --coachd "$build/bin/coachd" --out "$build/out" "$@"
