#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fap-infer --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build/ in the current directory, so nothing is written outside
# the checkout. The build fails (and no result is printed) when the
# repository's module is not next to this directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters)
# inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
