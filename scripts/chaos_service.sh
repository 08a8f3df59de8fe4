#!/bin/sh
# chaos_service.sh — crash/fault drills against a real dwarnd, driven by
# the DWARN_CHAOS injection seam (see internal/chaos).
#
# Three drills, each a full process lifecycle with assertions:
#
#   1. crash-recovery: DWARN_CHAOS=exit:sweep.journal.appended kills the
#      server (exit 137, like kill -9) immediately after a sweep's
#      submit record is durably journaled and before any cell reaches
#      the executor — the worst-case crash point. A restart on the same
#      -store must resume the sweep under its original id, flag it
#      recovered, and run it to done.
#   2. torn-tail: DWARN_CHAOS=torn:journal.append makes every journal
#      append land as a half-written record. The submission must be
#      refused (500), and a restart must truncate the torn tail and
#      journal normally again.
#   3. store-errors: DWARN_CHAOS=error:store.put drops every durable
#      result and checkpoint write. The sweep must still complete — the
#      store is best-effort by contract — with nothing persisted.
#
# Exits nonzero on the first failed assertion.
#
# Usage:
#   scripts/chaos_service.sh   (or `make chaos-service`)
set -eu

port="${CHAOS_SERVICE_PORT:-18577}"
base="http://127.0.0.1:$port"
sweep='{"policies": [{"name": "icount"}, {"name": "dwarn"}], "workloads": [{"name": "2-MIX"}],
        "warmup_cycles": 2000, "measure_cycles": 5000}'

work="$(mktemp -d)"
pids=""
cleanup() {
    [ -n "${srv:-}" ] && kill "$srv" 2>/dev/null || true
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "chaos_service: building dwarnd" >&2
go build -o "$work/dwarnd" ./cmd/dwarnd

wait_http() {
    i=0
    until curl -sf "$1" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "chaos_service: $1 never came up" >&2; exit 1; }
        sleep 0.1
    done
}

wait_sweep_done() { # $1 = sweep id
    i=0
    while :; do
        state="$(curl -sf "$base/v2/sweeps/$1" | jq -r .state)"
        [ "$state" = done ] && return 0
        [ "$state" = running ] || { echo "chaos_service: sweep $1 ended $state" >&2; exit 1; }
        i=$((i + 1))
        [ "$i" -gt 300 ] && { echo "chaos_service: sweep $1 never finished" >&2; exit 1; }
        sleep 0.1
    done
}

# --- drill 1: crash between journal append and executor submit --------
echo "chaos_service: drill 1: crash after submit record, recover on restart" >&2
store="$work/store1"
DWARN_CHAOS=exit:sweep.journal.appended \
    "$work/dwarnd" -addr "127.0.0.1:$port" -store "$store" -log-level error &
crashpid=$!
wait_http "$base/healthz"
# The server dies mid-request; the submit response never arrives.
curl -s -X POST "$base/v2/sweeps" -d "$sweep" >/dev/null 2>&1 || true
st=0
wait "$crashpid" || st=$?
[ "$st" -eq 137 ] || { echo "chaos_service: FAIL: exit status $st, want 137" >&2; exit 1; }
[ -s "$store/journal.log" ] || { echo "chaos_service: FAIL: no journal written" >&2; exit 1; }

"$work/dwarnd" -addr "127.0.0.1:$port" -store "$store" -log-level error &
srv=$!
wait_http "$base/healthz"
# A fresh server numbers its first sweep 000001; the journaled sweep
# keeps that id across the restart.
status="$(curl -sf "$base/v2/sweeps/sweep-000001")"
echo "$status" | jq -e '.recovered == true' >/dev/null \
    || { echo "chaos_service: FAIL: sweep not flagged recovered: $status" >&2; exit 1; }
wait_sweep_done sweep-000001
curl -sf "$base/v2/sweeps/sweep-000001" \
    | jq -e '.failed == 0 and ([.cells[].fingerprint] | all(length > 0))' >/dev/null \
    || { echo "chaos_service: FAIL: recovered sweep incomplete" >&2; exit 1; }
kill "$srv" 2>/dev/null || true
wait "$srv" 2>/dev/null || true
echo "chaos_service: PASS drill 1 (crash → restart → recovered sweep done)" >&2

# --- drill 2: torn journal tail ---------------------------------------
echo "chaos_service: drill 2: torn append refused, tail truncated on restart" >&2
store="$work/store2"
DWARN_CHAOS=torn:journal.append \
    "$work/dwarnd" -addr "127.0.0.1:$port" -store "$store" -log-level error &
srv=$!
wait_http "$base/healthz"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v2/sweeps" -d "$sweep")"
[ "$code" = 500 ] || { echo "chaos_service: FAIL: torn append returned $code, want 500" >&2; exit 1; }
[ -s "$store/journal.log" ] || { echo "chaos_service: FAIL: no torn tail on disk" >&2; exit 1; }
kill "$srv" 2>/dev/null || true
wait "$srv" 2>/dev/null || true

"$work/dwarnd" -addr "127.0.0.1:$port" -store "$store" -log-level error &
srv=$!
wait_http "$base/healthz"
id="$(curl -sf -X POST "$base/v2/sweeps" -d "$sweep" | jq -r .id)"
wait_sweep_done "$id"
kill "$srv" 2>/dev/null || true
wait "$srv" 2>/dev/null || true
echo "chaos_service: PASS drill 2 (torn tail truncated, journaling healthy)" >&2

# --- drill 3: store write errors --------------------------------------
echo "chaos_service: drill 3: sweep completes despite store write failures" >&2
store="$work/store3"
DWARN_CHAOS=error:store.put \
    "$work/dwarnd" -addr "127.0.0.1:$port" -store "$store" -log-level error &
srv=$!
wait_http "$base/healthz"
id="$(curl -sf -X POST "$base/v2/sweeps" -d "$sweep" | jq -r .id)"
wait_sweep_done "$id"
# Every durable write was dropped: no result JSON and no checkpoint
# landed in the store.
n="$(ls "$store"/*.json 2>/dev/null | wc -l)"
[ "$n" -eq 0 ] || { echo "chaos_service: FAIL: $n results persisted under error:store.put" >&2; exit 1; }
n="$(ls "$store"/ckpt/*.ckpt 2>/dev/null | wc -l)"
[ "$n" -eq 0 ] || { echo "chaos_service: FAIL: $n checkpoints persisted under error:store.put" >&2; exit 1; }
kill "$srv" 2>/dev/null || true
wait "$srv" 2>/dev/null || true
echo "chaos_service: PASS drill 3 (store errors absorbed, nothing persisted)" >&2

echo "chaos_service: all drills passed"
