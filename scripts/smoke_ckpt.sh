#!/bin/sh
# smoke_ckpt.sh — end-to-end correctness check for the checkpoint/fork
# engine.
#
# Runs the 72-cell examples/specs/parallel-grid.json (6 policies × 3
# workloads × 4 seeds = 12 checkpoint groups) three ways and asserts:
#
#   1. A checkpointed parallel run produces per-cell counter digests
#      bit-identical to a serial run with checkpointing disabled.
#   2. Exactly one calibration per (workload, seed) group:
#      dwarn_ckpt_misses_total == 12, hits == 60, fallbacks == 0.
#   3. Every one of the 12 checkpoint files is under 96 KB: images hold
#      each thread's compact calibration, a few KB per group.
#   4. The checkpointed run's policy cells share each group's correct
#      path: dwarn_tape_chunks_total{op="read"} is at least 3x
#      {op="generated"} (one generated chunk serves several cells).
#   5. A second invocation against the same -ckpt-dir forks every cell
#      (misses == 0) and still matches the reference digests.
#
# Usage: scripts/smoke_ckpt.sh   (or `make smoke-ckpt`)
set -eu

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

spec="examples/specs/parallel-grid.json"
go build -o "$tmp/smtsim" ./cmd/smtsim

digests() { grep '^[a-z].* digest=' "$1" | sort; }

# metric FILE NAME → value (counters print as integers; 0 if absent).
metric() {
    awk -v name="$2" '$1 == name { print $2; found = 1 } END { if (!found) print 0 }' "$1"
}

echo "smoke_ckpt: serial reference run (checkpointing off)..."
"$tmp/smtsim" -spec "$spec" -parallel 1 -ckpt=false > "$tmp/serial.out"
digests "$tmp/serial.out" > "$tmp/serial.digests"
n="$(wc -l < "$tmp/serial.digests")"
if [ "$n" -ne 72 ]; then
    echo "smoke_ckpt: FAIL: serial run printed $n digest lines, want 72" >&2
    exit 1
fi

echo "smoke_ckpt: checkpointed parallel run (fresh -ckpt-dir)..."
"$tmp/smtsim" -spec "$spec" -parallel 8 -ckpt-dir "$tmp/ckpt" \
    -metrics "$tmp/warm.prom" > "$tmp/warm.out"
digests "$tmp/warm.out" > "$tmp/warm.digests"
if ! cmp -s "$tmp/serial.digests" "$tmp/warm.digests"; then
    echo "smoke_ckpt: FAIL: checkpointed digests diverge from serial reference:" >&2
    diff "$tmp/serial.digests" "$tmp/warm.digests" >&2 || true
    exit 1
fi

misses="$(metric "$tmp/warm.prom" dwarn_ckpt_misses_total)"
hits="$(metric "$tmp/warm.prom" dwarn_ckpt_hits_total)"
fallbacks="$(metric "$tmp/warm.prom" dwarn_ckpt_fallbacks_total)"
if [ "$misses" -ne 12 ] || [ "$hits" -ne 60 ] || [ "$fallbacks" -ne 0 ]; then
    echo "smoke_ckpt: FAIL: warm pass counters misses=$misses hits=$hits fallbacks=$fallbacks, want 12/60/0" >&2
    exit 1
fi
files="$(ls "$tmp/ckpt"/*.ckpt 2>/dev/null | wc -l)"
if [ "$files" -ne 12 ]; then
    echo "smoke_ckpt: FAIL: $files checkpoint files on disk, want 12 (one per group)" >&2
    exit 1
fi
generated="$(metric "$tmp/warm.prom" 'dwarn_tape_chunks_total{op="generated"}')"
read="$(metric "$tmp/warm.prom" 'dwarn_tape_chunks_total{op="read"}')"
if [ "$generated" -eq 0 ] || [ "$read" -lt $((3 * generated)) ]; then
    echo "smoke_ckpt: FAIL: tape chunks generated=$generated read=$read, want read >= 3 x generated > 0" >&2
    exit 1
fi
largest=0
for f in "$tmp/ckpt"/*.ckpt; do
    size="$(wc -c < "$f")"
    [ "$size" -gt "$largest" ] && largest="$size"
    if [ "$size" -ge 98304 ]; then
        echo "smoke_ckpt: FAIL: $(basename "$f") is $size bytes, want under 96 KB" >&2
        exit 1
    fi
done

echo "smoke_ckpt: re-run against the populated -ckpt-dir..."
"$tmp/smtsim" -spec "$spec" -parallel 8 -ckpt-dir "$tmp/ckpt" \
    -metrics "$tmp/fork.prom" > "$tmp/fork.out"
digests "$tmp/fork.out" > "$tmp/fork.digests"
if ! cmp -s "$tmp/serial.digests" "$tmp/fork.digests"; then
    echo "smoke_ckpt: FAIL: all-fork digests diverge from serial reference" >&2
    exit 1
fi
misses2="$(metric "$tmp/fork.prom" dwarn_ckpt_misses_total)"
hits2="$(metric "$tmp/fork.prom" dwarn_ckpt_hits_total)"
if [ "$misses2" -ne 0 ] || [ "$hits2" -ne 72 ]; then
    echo "smoke_ckpt: FAIL: fork pass counters misses=$misses2 hits=$hits2, want 0/72" >&2
    exit 1
fi

echo "smoke_ckpt: PASS — 72/72 digests bit-identical, 12 calibrations (one per group), 132 forks across both passes, largest image $largest bytes, $read tape chunks read of $generated generated"
