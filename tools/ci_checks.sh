#!/usr/bin/env bash
# Canonical CI entry point — also pleasant to run locally before
# pushing. Chains, in order:
#
#   1. configure with warnings-as-errors (SLOWCC_WERROR=ON)
#   2. full build
#   3. Release library build with warnings-as-errors in
#      <build-dir>-release: -O2 inlining surfaces warnings (GCC 12's
#      -Wrestrict false positives) the default build type does not
#   4. slowcc_lint over the tree (the `lint` target)
#   5. clang-tidy (`tidy` target; no-op when clang-tidy is absent)
#   6. ctest tier-1 suite (includes sweep_chaos_smoke: a poison sweep
#      whose trials fail at a seed-derived rate (fail_rate), run as a
#      --jobs 4 --resume sweep SIGKILLed mid-grid and resumed, must match
#      the uninterrupted --jobs 1 output byte-for-byte; the
#      sweep_rejects_* tests: malformed budget, seed, trial and job flags
#      of slowcc_sweep exit 2, and so does a non-finite grid value
#      (sweep_rejects_duration_scale_nan, sweep_rejects_set_inf) or a
#      --set/--sweep name the experiment does not declare, a --set with
#      no value or a non-numeric one (sweep_rejects_set_*,
#      sweep_rejects_scenario_sweep_undeclared), naming its key; the
#      spec_rejects_* tests: a malformed
#      --scale or --seed of slowcc_spec exits 2 naming the flag;
#      spec_smoke: the specs/ library vs its committed golden digests
#      plus spec-driven sweep determinism; and overload_smoke: a
#      memory-bomb trial under --trial-max-bytes must quarantine as
#      resource-exhausted with peak-usage fields while the canonical
#      outputs stay byte-identical across --jobs 1, --jobs 4 and a
#      killed+resumed run)
#   7. repro ledger: tools/repro_ledger.py validates the committed
#      BENCH_repro.json (schema slowcc.repro.v2: wall time and events/s
#      of each figure-table entry, of the whole table and of each spec
#      swept over tcp,tfrc:6 x 3 seeds, as the median and spread of 3
#      Release runs) and checks that its entries are exactly
#      `slowcc_figures --list` and the specs/*.toml stems, so a
#      figure-table or spec-library change that leaves the ledger stale
#      fails here. No timing is judged.
#   8. pins: perfbench/run.py runs each benchmark workload for 1 s at
#      seed 1 and must report "correct": true, i.e. the pinned digests
#      in perfbench/pins.txt hold and the event stream is unchanged
#      (about 5 s after the perfbench build in .bench_build/).
#      Set SLOWCC_SKIP_BENCH=1 to skip steps 7 and 8.
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

step "release library (Release, SLOWCC_WERROR=ON) -> $build_dir-release"
cmake -B "$build_dir-release" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release \
  -DSLOWCC_WERROR=ON
cmake --build "$build_dir-release" -j"$jobs" --target slowcc

step "lint (slowcc_lint over src bench tools examples)"
cmake --build "$build_dir" --target lint

step "tidy (clang-tidy; no-op when unavailable)"
cmake --build "$build_dir" --target tidy

step "ctest (-j$jobs)"
ctest --test-dir "$build_dir" --output-on-failure -j"$jobs"

if [[ "${SLOWCC_SKIP_BENCH:-0}" != "1" ]]; then
  step "repro ledger (BENCH_repro.json against slowcc_figures --list and specs/)"
  python3 "$repo_root/tools/repro_ledger.py" \
    --validate "$repo_root/BENCH_repro.json" \
    --figures "$build_dir/bench/slowcc_figures" \
    --specs "$repo_root/specs"
  step "pins (perfbench workloads at seed 1 match perfbench/pins.txt)"
  for workload in many_flows slow_dynamics paper_sweep; do
    result="$(cd "$repo_root" && python3 perfbench/run.py \
      --workload "$workload" --seed 1 --seconds 1 | tail -n 1)"
    if [[ "$result" != *'"correct": true'* ]]; then
      echo "ci_checks: $workload does not match its pins: $result" >&2
      exit 1
    fi
    echo "pins: $workload correct"
  done
else
  step "repro ledger and pins (skipped: SLOWCC_SKIP_BENCH=1)"
fi

echo
echo "ci_checks: ALL PASS"
