#!/usr/bin/env bash
# Overload smoke: the membomb self-test experiment grows its event and
# packet population without bound; only the --trial-max-bytes governor
# stops it. One trial of the grid is the bomb (bomb_trial=1); the rest
# are healthy. The contract under test:
#
#   1  The bomb is quarantined as resource-exhausted on its one
#      attempt (no retry), its row carries the peak_* usage fields with
#      a peak above the 64 KiB budget, and every healthy row is
#      untouched by the governor.
#   2  The canonical trials.*/cells.* files are byte-identical across
#      --jobs 1, --jobs 4, and a --resume run that is SIGKILLed while
#      the bomb is mid-flight and then resumed — overload handling must
#      not perturb the determinism contract.
#
# Usage: tools/overload_smoke.sh /path/to/slowcc_sweep_selftest
# (the sweep driver linked with the self-test experiments; see
# tests/self_test_experiments.cpp)
set -euo pipefail

sweep="${1:?usage: overload_smoke.sh /path/to/slowcc_sweep_selftest}"
if [[ ! -x "$sweep" ]]; then
  echo "overload_smoke: slowcc_sweep_selftest not found at '$sweep' —" \
       "build it with: cmake --build build --target slowcc_sweep_selftest" >&2
  exit 1
fi
work="$(mktemp -d)"
trap 'rc=$?; rm -rf "$work"; exit $rc' EXIT

fail() {
  echo "overload_smoke: FAIL ($*)" >&2
  exit 1
}

# sleep_ms keeps each trial slow enough that the SIGKILL below lands
# mid-bomb; it is part of the spec, so the golden run pays it too.
common=(--experiment membomb --algorithms tcp
        --set bomb_trial=1 --set sleep_ms=300
        --trials 6 --base-seed 7 --trial-max-bytes 64k)

run_expect_quarantine() {
  local label="$1"; shift
  local rc=0
  "$sweep" "$@" --quiet || rc=$?
  # Exit 1 = trial failures: exactly what one quarantined bomb means.
  [[ $rc -eq 1 ]] || fail "$label: exited $rc (want 1: quarantined bomb)"
}

check_journal() {
  local journal="$1" label="$2"
  [[ -s "$journal" ]] || fail "$label: no journal at $journal"
  local bombs
  bombs=$(grep -c '"error_kind":"resource-exhausted"' "$journal") || true
  [[ "$bombs" -eq 1 ]] \
    || fail "$label: $bombs resource-exhausted rows (want exactly 1)"
  grep '"error_kind":"resource-exhausted"' "$journal" \
      | grep -q '"peak_bytes_estimate"' \
    || fail "$label: quarantined row is missing its peak-usage fields"
  # One attempt: the row has no "attempts" key (it is written only
  # above 1), and the peak that tripped the abort is over 64 KiB.
  grep '"error_kind":"resource-exhausted"' "$journal" \
      | grep -q '"attempts"' \
    && fail "$label: bomb row carries an attempts key (was it retried?)"
  local peak
  peak=$(grep '"error_kind":"resource-exhausted"' "$journal" \
      | sed -n 's/.*"peak_bytes_estimate":\([0-9]*\).*/\1/p')
  [[ -n "$peak" && "$peak" -gt 65536 ]] \
    || fail "$label: bomb peak_bytes_estimate '$peak' is not above 65536"
  # Healthy rows must not leak governor bookkeeping into the journal.
  if grep -v '"error_kind"' "$journal" | grep -q '"peak_'; then
    fail "$label: a healthy row carries peak_* fields"
  fi
}

# Golden reference: single-threaded, checkpointed.
run_expect_quarantine "reference" "${common[@]}" --jobs 1 \
  --resume "$work/ref"
check_journal "$work/ref/journal.jsonl" "reference"

# The checkpoint journal is append-order (completion order), so it is
# only byte-stable for uninterrupted single-threaded runs; the
# canonical contract is over the sorted trials.* / cells.* files.
compare_canonical() {
  local dir="$1" label="$2"
  for f in trials.jsonl trials.csv cells.jsonl cells.csv; do
    if ! cmp -s "$work/ref/$f" "$dir/$f"; then
      diff "$work/ref/$f" "$dir/$f" >&2 || true
      fail "$label: $f differs from the --jobs 1 run"
    fi
  done
}

# ---- Threaded run: same bytes with four workers --------------------
run_expect_quarantine "jobs 4" "${common[@]}" --jobs 4 \
  --resume "$work/par"
compare_canonical "$work/par" "jobs 4"
check_journal "$work/par/journal.jsonl" "jobs 4"

# ---- Killed mid-bomb, then resumed ---------------------------------
# Trial 0 sleeps 300 ms, so at 0.5 s the single worker is inside the
# bomb trial; the resume re-runs everything without a successful row.
"$sweep" "${common[@]}" --jobs 1 --resume "$work/kill" --quiet &
pid=$!
sleep 0.5
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
[[ -e "$work/kill/trials.jsonl" ]] \
  && fail "killed run: finished before the SIGKILL landed"
run_expect_quarantine "resumed" "${common[@]}" --jobs 4 \
  --resume "$work/kill"
compare_canonical "$work/kill" "killed+resumed"
# The journal may hold a pre-kill row next to its re-run; the finals
# hold one row per trial.
check_journal "$work/kill/trials.jsonl" "killed+resumed"

echo "overload_smoke: PASS"
