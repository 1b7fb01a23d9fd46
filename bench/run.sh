#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build writes stays inside the checkout, under
# .bench_build/ at its root; results go to bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/das-bench" .
exec "$build/das-bench" -out "$here/out" "$@"
