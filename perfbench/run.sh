#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload incast_storm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, the Go build cache, temporary files, the go
# command's config directory (its telemetry counters live there) and, for
# --trace 1, the span files. Without the repository's sources (the
# ibflow module one directory up) the build fails and so does the run.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --trace-dir "$build/perfbench-trace" "$@"
