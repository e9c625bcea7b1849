#!/usr/bin/env bash
# Builds the harness from source and runs it with the given arguments.
# Everything the build and the run write stays inside the checkout:
# .bench_build/ (Go build cache, binary) and benchmark/out/ (traces, temp).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$root/benchmark/out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/relbench" .)
exec "$build/relbench" "$@"
