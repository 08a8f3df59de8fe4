#!/bin/sh
# Builds dwarnbench from source and runs it with the given arguments.
# Everything the build and the run write stays under .bench_build/ at
# the repository root (build cache, binary, scratch stores, traces).
#
# From the repository root:
#
#   sh cmd/dwarnbench/bench.sh -seed 1                      # all workloads, fixed sizes
#   sh cmd/dwarnbench/bench.sh --workload engine --seed 1 --seconds 25 --trace 0
#
# Outside a full checkout (no ../../go.mod) the build fails and the
# script exits non-zero without printing a result.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

GOCACHE="$out/gocache"
GOMODCACHE="$out/gomodcache"
GOTMPDIR="$out/tmp"
GOTOOLCHAIN=local
GOPROXY=off
GOWORK=off
GOENV=off
GOFLAGS=
export GOCACHE GOMODCACHE GOTMPDIR GOTOOLCHAIN GOPROXY GOWORK GOENV GOFLAGS

(cd "$here" && go build -o "$out/dwarnbench" .)
exec "$out/dwarnbench" "$@"
