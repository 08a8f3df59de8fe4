#!/bin/sh
# bench_fabric.sh — record distributed-fabric sweep throughput.
#
# End-to-end, multi-process: for each worker count N in 1/2/4, start a
# pure-coordinator dwarnd (-workers 0: no local slots) plus N separate
# `dwarnd -worker` processes, submit the 72-cell examples/specs/
# parallel-grid.json sweep over HTTP, and time submit→done. Each round
# uses a fresh result store, so every cell is simulated, not cached.
# Writes BENCH_fabric.json with cells/sec per worker-process count and
# the 1→4-process speedup.
#
# The speedup is bounded by the host's cores: on a single-core runner
# the N-process rates collapse to the serial rate (the processes time-
# slice one CPU) and the recorded speedup is meaningless as a baseline
# — the output is marked degraded.
#
# Usage:
#   scripts/bench_fabric.sh [output.json]   (or `make bench-fabric`)
set -eu

out="${1:-BENCH_fabric.json}"
spec="examples/specs/parallel-grid.json"
port="${BENCH_FABRIC_PORT:-18473}"
base="http://127.0.0.1:$port"

work="$(mktemp -d)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "bench_fabric: building dwarnd" >&2
go build -o "$work/dwarnd" ./cmd/dwarnd
jq .sweep "$spec" > "$work/sweep.json"
total="$(jq '.sweep | (.policies | length) * (.workloads | length) * (if .seeds then (.seeds | length) else 1 end)' "$spec")"

maxprocs="$(go run ./scripts/maxprocs 2>/dev/null || echo 0)"
degraded=false
if [ "$maxprocs" -le 1 ]; then
    degraded=true
    echo "bench_fabric: WARNING: GOMAXPROCS=$maxprocs — N worker processes time-slice" >&2
    echo "bench_fabric: WARNING: one core; speedup is meaningless here; results marked degraded" >&2
fi

wait_http() { # url: poll until it answers
    i=0
    until curl -sf "$1" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "bench_fabric: $1 never came up" >&2; exit 1; }
        sleep 0.1
    done
}

run_round() { # $1 = worker process count; prints elapsed seconds
    n="$1"
    store="$work/store-$n"
    "$work/dwarnd" -addr "127.0.0.1:$port" -store "$store" \
        -workers 0 -max-cycles -1 -log-level error &
    coord=$!
    pids="$pids $coord"
    wait_http "$base/healthz"

    wpids=""
    i=0
    while [ "$i" -lt "$n" ]; do
        "$work/dwarnd" -worker -coordinator "$base" -store "$store" \
            -workers 1 -worker-name "bench-$i" -log-level error &
        wpids="$wpids $!"
        i=$((i + 1))
    done
    pids="$pids $wpids"

    id="$(curl -sf -X POST "$base/v2/sweeps" -d @"$work/sweep.json" | jq -r .id)"
    start="$(date +%s.%N)"
    state=running
    while [ "$state" = running ]; do
        sleep 0.2
        state="$(curl -sf "$base/v2/sweeps/$id" | jq -r .state)"
    done
    end="$(date +%s.%N)"
    [ "$state" = done ] || { echo "bench_fabric: sweep ended in state $state" >&2; exit 1; }

    kill $wpids $coord 2>/dev/null || true
    wait $wpids $coord 2>/dev/null || true
    awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }'
}

rates=""
for n in 1 2 4; do
    echo "bench_fabric: round: $n worker process(es)" >&2
    secs="$(run_round "$n")"
    rate="$(awk -v t="$total" -v s="$secs" 'BEGIN { printf "%.2f", t / s }')"
    echo "bench_fabric: $n worker(s): $total cells in ${secs}s = $rate cells/sec" >&2
    rates="$rates $n:$rate"
done

{
    printf '{\n'
    printf '  "benchmark": "fabric_sweep_72_cells",\n'
    printf '  "spec": "%s",\n' "$spec"
    printf '  "grid_cells": %d,\n' "$total"
    printf '  "worker_capacity": 1,\n'
    printf '  "gomaxprocs": %d,\n' "$maxprocs"
    printf '  "degraded": %s,\n' "$degraded"
    printf '  "cells_per_sec": {\n'
    first=true
    for kv in $rates; do
        n="${kv%%:*}"; r="${kv#*:}"
        $first || printf ',\n'
        first=false
        printf '    "worker_processes_%s": %s' "$n" "$r"
    done
    printf '\n  },\n'
    r1=""; r4=""
    for kv in $rates; do
        case "${kv%%:*}" in
            1) r1="${kv#*:}" ;;
            4) r4="${kv#*:}" ;;
        esac
    done
    if [ -n "$r1" ] && [ -n "$r4" ]; then
        awk -v a="$r1" -v b="$r4" 'BEGIN { printf "  \"speedup_4_workers\": %.2f\n", b / a }'
    else
        printf '  "speedup_4_workers": null\n'
    fi
    printf '}\n'
} > "$out"

echo "bench_fabric: wrote $out"
