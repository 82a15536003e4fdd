#!/usr/bin/env bash
# Builds the benchmark from source and runs it. BENCHMARK.json names this
# script as the benchmark's command; run it from the repository root:
#
#   bash benchmark/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays inside the checkout: the binary, the Go
# build cache, the toolchain's temporary files and its telemetry counters
# all live under .bench_build/ (the first build of a checkout compiles the
# standard library too, about 20 s on 2 cores). The module has no
# dependency outside this repository, so nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$here" -o "$build/layoutbench" .
cd "$root"
exec "$build/layoutbench" "$@"
