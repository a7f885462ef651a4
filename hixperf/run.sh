#!/usr/bin/env bash
# Builds the hixperf benchmark from the source tree it sits in and runs it
# with the given arguments, e.g.
#   bash hixperf/run.sh --workload small-jobs --seed 1 --seconds 10 --trace 0
# Build outputs (binary, Go build cache) stay in .bench_build at the root
# of the tree, so a run reads and writes nothing outside the tree apart
# from the Go toolchain itself.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/hixperf" .)
exec "$build/hixperf" "$@"
