#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source inside
# the checkout and runs it with the arguments given. Everything the build
# writes (Go build cache, temporary files, the binary) stays under
# .bench_build/ at the root of the checkout; everything a run writes stays
# under benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C benchmark -o "$build/snb-benchmark" . >&2
exec "$build/snb-benchmark" "$@"
