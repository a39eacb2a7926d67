#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload core-256 --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -compare dirA dirB
#
# Everything the build and the runs leave behind goes under .bench_build/:
# the Go build cache and temporary files (so nothing is written outside
# the checkout), the binary, and the result files.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
