#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload (or of one
# package's Go benchmarks), recorded in
# bench/history/<entry>-<workload>.json (see bench/pairs.go).
#
#   bash bench/pairs.sh [-trace] <parent-rev> <workload> [pairs]   # pairs defaults to 10
#   bash bench/pairs.sh -bench <parent-rev> <pkg-dir> <regex> [pairs]
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
exec go run "$root/bench/pairs.go" "$@"
