#!/usr/bin/env bash
# Spec library smoke, in two legs:
#
#   1  Golden gate: slowcc_spec --check runs every committed spec at a
#      short duration scale and byte-compares the trace digests against
#      specs/golden/ (regen: SLOWCC_REGEN_GOLDEN=1).
#   2  Sweep determinism: a spec-driven sweep (algorithm hole filled
#      from --algorithms, one declared [params] axis swept) must be
#      byte-identical across --jobs 4 (via --selfcheck, which replays
#      the grid at --jobs 1), and between the finals of a --jobs 1
#      and a --jobs 4 checkpointed (--resume) run of the same grid.
#
# Usage: tools/spec_smoke.sh /path/to/slowcc_spec /path/to/slowcc_sweep specs/
set -euo pipefail

spec_tool="${1:?usage: spec_smoke.sh slowcc_spec slowcc_sweep specs_dir}"
sweep="${2:?usage: spec_smoke.sh slowcc_spec slowcc_sweep specs_dir}"
specs="${3:?usage: spec_smoke.sh slowcc_spec slowcc_sweep specs_dir}"
for bin in "$spec_tool" "$sweep"; do
  if [[ ! -x "$bin" ]]; then
    echo "spec_smoke: binary not found at '$bin' — build with:" \
         "cmake --build build --target slowcc_spec slowcc_sweep" >&2
    exit 1
  fi
done
[[ -d "$specs" ]] || { echo "spec_smoke: no specs dir at '$specs'" >&2; exit 1; }

work="$(mktemp -d)"
# Preserve the failing command's exit code through the cleanup trap so
# callers (ctest, CI) see the real status, not rm's.
trap 'rc=$?; rm -rf "$work"; exit $rc' EXIT

fail() {
  echo "spec_smoke: FAIL ($*)" >&2
  exit 1
}

# ---- Leg 1: every spec parses and matches its golden --------------
"$spec_tool" --check "$specs" || fail "slowcc_spec --check exited $?"

# ---- Leg 2: spec-driven sweep determinism -------------------------
# wifi_jitter_burst declares the burst_loss param and leaves the flow
# algorithm as a "$algorithm" hole, so this exercises --spec + --sweep
# + --algorithms composed, exactly as EXPERIMENTS.md documents.
common=(--spec "$specs/wifi_jitter_burst.toml"
        --algorithms tcp,tfrc:6 --trials 2
        --sweep burst_loss=0.1,0.3 --base-seed 11
        --duration-scale 0.02 --quiet)

# jobs=4 vs jobs=1: --selfcheck re-runs the grid single-threaded and
# fails unless every row is byte-identical.
"$sweep" "${common[@]}" --jobs 4 --selfcheck \
  || fail "spec sweep --jobs 4 --selfcheck exited $?"

# --jobs 1 vs --jobs 4 checkpointed runs of the same grid: the
# journals are completion-order, the finals must match byte for byte.
"$sweep" "${common[@]}" --jobs 1 --resume "$work/ref" \
  || fail "spec sweep --jobs 1 --resume exited $?"
"$sweep" "${common[@]}" --jobs 4 --resume "$work/par" \
  || fail "spec sweep --jobs 4 --resume exited $?"

for f in trials.jsonl trials.csv cells.jsonl cells.csv; do
  if ! cmp -s "$work/ref/$f" "$work/par/$f"; then
    echo "spec_smoke: FAIL ($f differs between --jobs 1 and --jobs 4)" >&2
    diff "$work/ref/$f" "$work/par/$f" >&2 || true
    exit 1
  fi
done

echo "spec_smoke: PASS"
