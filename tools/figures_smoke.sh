#!/usr/bin/env bash
# Smoke-test the figure table: `--list` names all 25 entries; the cheap
# entries (closed forms and short single-flow runs) exit 0 with one
# [SHAPE-OK] each, byte-identically over two runs, and the blackout
# entry's JSON rows parse; an unknown entry name exits 2.
#
# Usage: tools/figures_smoke.sh <slowcc_figures-bin>
set -euo pipefail

figures="${1:?usage: figures_smoke.sh <slowcc_figures>}"

out_dir="$(mktemp -d)"
trap 'rc=$?; rm -rf "$out_dir"; exit $rc' EXIT

fail() {
  echo "figures smoke: $*" >&2
  exit 1
}

"$figures" --list > "$out_dir/list"
names=$(wc -l < "$out_dir/list")
[ "$names" -eq 25 ] || fail "--list printed $names names, want 25"
[ "$(sort -u "$out_dir/list" | wc -l)" -eq 25 ] || fail "--list repeats a name"

cheap="fig11_convergence_acks fig17_smoothness_mild fig18_smoothness_bursty
  fig19_smoothness_binomial fig20_timeout_model ext_tear_smoothness
  ext_delayed_acks ext_blackout_recovery"
for run in 1 2; do
  # shellcheck disable=SC2086
  "$figures" $cheap > "$out_dir/run$run" ||
    fail "the cheap entries exited $? on run $run"
done
cmp -s "$out_dir/run1" "$out_dir/run2" || fail "two runs printed different bytes"
verdicts=$(grep -c '^\[SHAPE-' "$out_dir/run1" || true)
held=$(grep -c '^\[SHAPE-OK\]' "$out_dir/run1" || true)
[ "$verdicts" -eq 8 ] && [ "$held" -eq 8 ] ||
  fail "$held of $verdicts verdict lines are SHAPE-OK, want 8 of 8"
grep '^{"bench":"ext_blackout_recovery"' "$out_dir/run1" |
  python3 -c 'import json, sys; rows = [json.loads(l) for l in sys.stdin]; assert len(rows) == 3, rows' ||
  fail "ext_blackout_recovery's JSON rows do not parse"

rc=0
"$figures" no_such_entry > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "an unknown entry exited $rc, want 2"

echo "figures smoke: OK"
