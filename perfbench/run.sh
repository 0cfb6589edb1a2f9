#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
# Run it from the repository root.  Build outputs stay in .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
# Keep the toolchain's caches and telemetry counters inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
