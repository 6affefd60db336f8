#!/usr/bin/env bash
# Crash-safety smoke for the sweep subsystem: run a poison-experiment
# sweep with seed-derived failures under a checkpoint, SIGKILL it
# mid-run, resume it, and require the resumed result set to be
# byte-identical to an uninterrupted --jobs 1 run of the same spec.
#
# Exercises, end to end: trial quarantine (boom=1 cells always fail),
# failures scattered through the healthy cell (poison's fail_rate,
# rolled from each trial's seed), the append+flush journal with
# last-line-wins recovery, and atomic finalize.
#
# Usage: tools/sweep_chaos_smoke.sh /path/to/slowcc_sweep_selftest
# (the sweep driver linked with the self-test experiments; see
# tests/self_test_experiments.cpp)
set -euo pipefail

sweep="${1:?usage: sweep_chaos_smoke.sh /path/to/slowcc_sweep_selftest}"
if [[ ! -x "$sweep" ]]; then
  echo "sweep_chaos_smoke: slowcc_sweep_selftest not found at '$sweep' —" \
       "build it with: cmake --build build --target slowcc_sweep_selftest" >&2
  exit 1
fi
work="$(mktemp -d)"
# Preserve the failing command's exit code through the cleanup trap so
# callers (ctest, CI) see the real status, not rm's.
trap 'rc=$?; rm -rf "$work"; exit $rc' EXIT

# 32 trials over two cells: boom=0 (healthy, modulo fail_rate) and boom=1
# (always quarantined). sleep_ms keeps each trial slow enough in real
# time for the SIGKILL below to land mid-sweep on most machines; the
# test stays correct even when it lands before or after.
common=(--experiment poison --algorithms tcp
        --set sleep_ms=20 --set events=16 --sweep boom=0,1
        --trials 16 --base-seed 42
        --set fail_rate=0.3
        --trial-max-events 100000
        --duration-scale 1 --quiet)

run_sweep() {
  # Exit 1 means quarantined failures were reported — expected here
  # (the boom=1 cell always fails). Anything else is a real error.
  local rc=0
  "$sweep" "$@" || rc=$?
  if [[ $rc -ne 0 && $rc -ne 1 ]]; then
    echo "sweep_chaos_smoke: FAIL (sweep exited $rc)" >&2
    exit 1
  fi
}

# Reference: uninterrupted, single-threaded, checkpointed.
run_sweep "${common[@]}" --jobs 1 --resume "$work/ref"

# Crash run: 4 workers, killed hard mid-sweep...
set +e
"$sweep" "${common[@]}" --jobs 4 --resume "$work/crash" &
pid=$!
sleep 0.12
kill -9 "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
set -e

# ...then resumed with the same command line.
run_sweep "${common[@]}" --jobs 4 --resume "$work/crash"

for f in trials.jsonl trials.csv cells.jsonl cells.csv; do
  if ! cmp -s "$work/ref/$f" "$work/crash/$f"; then
    echo "sweep_chaos_smoke: FAIL ($f differs between the uninterrupted" \
         "run and the killed+resumed run)" >&2
    diff "$work/ref/$f" "$work/crash/$f" >&2 || true
    exit 1
  fi
done

# The manifest must mark the poison cell as failed.
if ! grep -q '"status":"failed"' "$work/crash/manifest.jsonl"; then
  echo "sweep_chaos_smoke: FAIL (no failed cell in manifest.jsonl)" >&2
  exit 1
fi

echo "sweep_chaos_smoke: PASS"
