#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given flags; BENCHMARK.json's command. The Go
# build cache lives in .bench_build/ too, so a run reads and writes only
# inside the checkout (the first build there compiles the standard library).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/cinnamon-bench" .
exec "$build/cinnamon-bench" "$@"
