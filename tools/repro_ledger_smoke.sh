#!/usr/bin/env bash
# Smoke-test the repro ledger: the committed BENCH_repro.json validates
# against `slowcc_figures --list` and the spec library, and copies of it
# with a figure or spec entry missing, with a min above its median, or
# with a wrong schema are rejected. No timing is judged.
#
# Usage: tools/repro_ledger_smoke.sh <slowcc_figures-bin> <repo-root>
set -euo pipefail

figures="${1:?usage: repro_ledger_smoke.sh <slowcc_figures> <repo-root>}"
root="${2:?usage: repro_ledger_smoke.sh <slowcc_figures> <repo-root>}"
ledger_tool="$root/tools/repro_ledger.py"
ledger="$root/BENCH_repro.json"

out_dir="$(mktemp -d)"
trap 'rc=$?; rm -rf "$out_dir"; exit $rc' EXIT

fail() {
  echo "repro ledger smoke: $*" >&2
  exit 1
}

python3 "$ledger_tool" --validate "$ledger" --figures "$figures" \
    --specs "$root/specs" ||
  fail "the committed $ledger does not validate"

# Each mutation edits a copy of the committed ledger.
mutate() {
  python3 - "$ledger" "$out_dir/$1.json" "$2" <<'EOF'
import json, sys
src, dst, how = sys.argv[1:]
ledger = json.load(open(src))
first = next(iter(ledger["entries"]))
if how == "missing":
    del ledger["entries"][first]
elif how == "spec_missing":
    del ledger["specs"]["entries"][next(iter(ledger["specs"]["entries"]))]
elif how == "min_above_median":
    wall = ledger["entries"][first]["wall_s"]
    wall["min"] = wall["median"] * 2
elif how == "schema":
    ledger["schema"] = "slowcc.repro.v0"
json.dump(ledger, open(dst, "w"))
EOF
}

for how in missing spec_missing min_above_median schema; do
  mutate "$how" "$how"
  if python3 "$ledger_tool" --validate "$out_dir/$how.json" \
      --figures "$figures" --specs "$root/specs" > /dev/null 2>&1; then
    fail "a ledger with the '$how' mutation validated"
  fi
done

echo "repro ledger smoke: OK"
