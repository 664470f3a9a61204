#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, recorded in
# bench/history/<entry>-<workload>.json (see bench/pairs.go).
#
#   bash bench/pairs.sh <parent-rev> <workload> [pairs]   # pairs defaults to 10
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
exec go run "$root/bench/pairs.go" "$@"
