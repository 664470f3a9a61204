#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from this checkout's
# source, then runs it with the given flags. Build outputs, the Go build
# cache and everything the benchmark writes stay under .bench_build in the
# checkout. In a directory without the repository's go.mod the build fails
# and so does this script, before any result is printed.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/locec-benchmark" .
exec "$root/.bench_build/locec-benchmark" "$@"
