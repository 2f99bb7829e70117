#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#	bash perfbench/run.sh --workload plan --seed 1 --seconds 30 --trace 0
#
# Every build output, the Go build cache and the compiler's scratch files
# included, stays under .bench_build in the checkout. The benchmark module
# points at the enclosing repository (go.mod's replace), so outside a full
# checkout the build, and therefore this script, fails without printing a
# result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
