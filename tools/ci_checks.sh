#!/usr/bin/env bash
# Canonical CI entry point — also pleasant to run locally before
# pushing. Chains, in order:
#
#   1. configure with warnings-as-errors (SLOWCC_WERROR=ON)
#   2. full build
#   3. slowcc_lint over the tree (the `lint` target)
#   4. clang-tidy (`tidy` target; no-op when clang-tidy is absent)
#   5. ctest tier-1 suite (includes fleet_chaos_smoke: multi-process
#      --fleet workers SIGKILLed/SIGSTOPped/SIGTERMed mid-grid must
#      converge to the --jobs 1 golden output byte-for-byte; and
#      spec_smoke: the specs/ library vs its committed golden digests
#      plus spec-driven sweep determinism; and overload_smoke: a
#      memory-bomb trial under --trial-max-bytes must quarantine as
#      resource-exhausted with peak-usage fields while the canonical
#      outputs stay byte-identical across --jobs 1/--jobs 4/--fleet)
#   6. engine perf report: bench_report runs the event-queue
#      micro-benchmarks, the BM_SaturatedDumbbell packet hot-path
#      macro-bench and the BM_DumbbellTcpSecond/BM_DumbbellTfrcSecond
#      whole-simulation benches (events/s), times one cold full-tree
#      lint run (lint_wall_ms), and writes BENCH_engine.json into the
#      build dir; --validate requires every one of those bench rows.
#      Set SLOWCC_SKIP_BENCH=1 to skip the step.
#
# Usage: tools/ci_checks.sh [build-dir]   (default: build-ci)
# Environment: JOBS=<n> overrides the parallelism (default: nproc).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-ci}"
jobs="${JOBS:-$(nproc)}"

step() { echo; echo "=== ci_checks: $* ==="; }

step "configure (SLOWCC_WERROR=ON) -> $build_dir"
cmake -B "$build_dir" -S "$repo_root" -DSLOWCC_WERROR=ON

step "build (-j$jobs)"
cmake --build "$build_dir" -j"$jobs"

step "lint (slowcc_lint over src bench tools examples)"
cmake --build "$build_dir" --target lint

step "tidy (clang-tidy; no-op when unavailable)"
cmake --build "$build_dir" --target tidy

step "ctest (-j$jobs)"
ctest --test-dir "$build_dir" --output-on-failure -j"$jobs"

if [[ "${SLOWCC_SKIP_BENCH:-0}" != "1" ]]; then
  step "bench (BENCH_engine.json)"
  "$build_dir/tools/bench_report" \
    --bench "$build_dir/bench/micro_engine" \
    --out "$build_dir/BENCH_engine.json" --min-time 0.25 \
    --lint "$build_dir/tools/slowcc_lint" --lint-root "$repo_root"
  "$build_dir/tools/bench_report" \
    --validate "$build_dir/BENCH_engine.json"
else
  step "bench (skipped: SLOWCC_SKIP_BENCH=1)"
fi

echo
echo "ci_checks: ALL PASS"
