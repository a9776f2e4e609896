#!/usr/bin/env bash
# Produce and validate the pipelined-engine artifact: runs the
# pipeline_snapshot bench (charged lockstep vs the stage pipeline at
# depths 1/2/4 on the Hertz GPUs, which asserts bit-identical search
# results, cross-checks trace busy/idle totals against the device clocks,
# and gates a >= 25% relative device-idle drop with no makespan
# regression), then sanity-checks the emitted JSON and compares it with the
# checked-in BENCH_pipeline.json: every field is virtual time or a count,
# so the file is byte-stable and any difference is a behaviour change of
# the engine, the scheduler or the cost model. Fails on malformed, missing
# or moved output.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-target/BENCH_pipeline.json}"
mkdir -p "$(dirname "$OUT")"

echo "==> pipeline_snapshot -> $OUT"
cargo run --release -q -p vs-bench --bin pipeline_snapshot -- "$OUT"

[ -s "$OUT" ] || { echo "ERROR: $OUT missing or empty" >&2; exit 1; }
grep -q '"bench": "pipeline"' "$OUT" || { echo "ERROR: $OUT is not a pipeline snapshot" >&2; exit 1; }
grep -q '"mode": "lockstep"' "$OUT" || { echo "ERROR: $OUT has no lockstep baseline" >&2; exit 1; }
grep -q '"mode": "pipelined:4"' "$OUT" || { echo "ERROR: $OUT has no pipelined modes" >&2; exit 1; }
grep -q '"idle_drop_rel"' "$OUT" || { echo "ERROR: $OUT has no idle-drop figure" >&2; exit 1; }

diff -u BENCH_pipeline.json "$OUT" \
  || { echo "ERROR: $OUT differs from the checked-in BENCH_pipeline.json (re-record it only with the reason in CHANGES.md)" >&2; exit 1; }

echo "==> pipeline report OK: $OUT ($(wc -c < "$OUT") bytes)"
