#!/usr/bin/env bash
# Smoke-test the engine perf pipeline: run bench_report against
# bench/micro_engine at a tiny --min-time so it finishes in seconds,
# then validate the emitted BENCH_engine.json (schema + every required
# benchmark row present), and check that a report missing any one of
# the five required rows fails validation. No timing is judged here
# — a ctest sharing the machine with the rest of the suite would
# flake; tools/ci_checks.sh runs the longer measurement.
#
# Usage: tools/bench_smoke.sh <bench_report-bin> <micro_engine-bin>
set -euo pipefail

bench_report="${1:?usage: bench_smoke.sh <bench_report> <micro_engine>}"
micro_engine="${2:?usage: bench_smoke.sh <bench_report> <micro_engine>}"

out_dir="$(mktemp -d)"
trap 'rc=$?; rm -rf "$out_dir"; exit $rc' EXIT

out="$out_dir/BENCH_engine.json"
"$bench_report" --bench "$micro_engine" --out "$out" --min-time 0.01
"$bench_report" --validate "$out"

# A report missing a required row must fail validation.
for row in BM_EventQueueScheduleRun BM_EventQueueCancelHeavy \
    BM_SaturatedDumbbell BM_DumbbellTcpSecond BM_DumbbellTfrcSecond; do
  grep -v "\"$row\"" "$out" > "$out_dir/missing.json"
  if "$bench_report" --validate "$out_dir/missing.json" >/dev/null 2>&1; then
    echo "bench smoke: a report without $row validated" >&2
    exit 1
  fi
done

echo "bench smoke: OK"
