#!/usr/bin/env bash
# Tier-1 gate for slowcc_lint (see tools/lint/): the real tree must lint
# clean, and synthetic violations seeded into a scratch tree must fail
# with the rule name and file:line in the output — one fixture per
# rule family (determinism, hot-path). Options the CLI does not know
# are usage errors (exit 2).
#
# Usage: tools/lint_smoke.sh /path/to/slowcc_lint /path/to/repo-root
set -euo pipefail

lint="${1:?usage: lint_smoke.sh /path/to/slowcc_lint /path/to/repo-root}"
root="${2:?usage: lint_smoke.sh /path/to/slowcc_lint /path/to/repo-root}"

if [[ ! -x "$lint" ]]; then
  echo "lint_smoke: slowcc_lint not found at '$lint' —" \
       "build it with: cmake --build build --target slowcc_lint" >&2
  exit 1
fi

scratch="$(mktemp -d)"
trap 'rc=$?; rm -rf "$scratch"; exit $rc' EXIT

fail() { echo "lint_smoke: FAIL ($*)" >&2; exit 1; }

# Expect the lint run over $2... to exit 1 and mention every pattern.
expect_finding() {
  local label="$1"; shift
  local out
  out="$("$lint" "$@" 2>&1)" && fail "$label: violation was not reported"
  local pattern
  for pattern in "$label"; do
    grep -q "$pattern" <<<"$out" \
      || fail "$label: rule name missing from output: $out"
  done
}

# 1. The tree itself must be clean (zero unsuppressed findings).
if ! "$lint" --root "$root" src bench tools examples; then
  fail "tree has unsuppressed lint findings, see above"
fi

# 2. A seeded violation must be caught, naming the rule and file:line.
mkdir -p "$scratch/src"
cat > "$scratch/src/scratch.cpp" <<'EOF'
int jitter() { return rand() % 7; }
EOF
out="$("$lint" --root "$scratch" src 2>&1)" \
  && fail "seeded rand() violation was not reported"
if ! grep -q "src/scratch.cpp:1" <<<"$out" \
   || ! grep -q "no-raw-rand" <<<"$out"; then
  echo "$out" >&2
  fail "finding lacks rule name or file:line"
fi

# 3. The hot-path dispatch rule: a std::function seeded into src/sim/
# trips no-std-function-hot-path and fails the gate (DESIGN.md §14).
mkdir -p "$scratch/src/sim"
cat > "$scratch/src/sim/hot.cpp" <<'EOF'
std::function<void()> pending_cb;
EOF
if out="$("$lint" --root "$scratch" src/sim 2>&1)"; then
  echo "$out" >&2
  fail "enforced no-std-function-hot-path finding kept exit code 0"
fi
grep -q "no-std-function-hot-path" <<<"$out" \
  || fail "hot-path std::function was not reported: $out"

# 4. One synthetic violation per determinism rule must exit 1
# with the rule name in the output.
family="$scratch/family"
mkdir -p "$family/src/sim"
cat > "$family/src/sim/hash.cpp" <<'EOF'
#include <unordered_map>
struct Flow {};
std::unordered_map<Flow*, int> by_flow;
EOF
expect_finding "no-unseeded-container-hash" --root "$family" src

cat > "$family/src/sim/hash.cpp" <<'EOF'
#include <cstdint>
long next_deadline(long pad) { return INT64_MAX + pad; }
EOF
expect_finding "no-time-arith-overflow" --root "$family" src

cat > "$family/src/sim/hash.cpp" <<'EOF'
#include <iostream>
#include <unordered_map>
std::unordered_map<int, int> stats;
void dump() {
  for (const auto& kv : stats) std::cout << kv.second;
}
EOF
expect_finding "no-iteration-order-leak" --root "$family" src

# 5. The hot-path allocation rule: a `new` reachable from an enqueue
# fails the gate (DESIGN.md §14).
cat > "$family/src/sim/hash.cpp" <<'EOF'
class ScratchQueue {
 public:
  void enqueue(int v) { slot_ = fill(v); }
 private:
  int* fill(int v) { return new int(v); }
  int* slot_ = nullptr;
};
EOF
expect_finding "no-hot-path-alloc" --root "$family" src

# 6. Options the CLI does not know exit 2 before any file is read.
for option in --cache --jobs --baseline --write-baseline --format --output; do
  rc=0
  "$lint" --root "$scratch" "$option" x src >/dev/null 2>&1 || rc=$?
  [[ "$rc" == 2 ]] || fail "$option exited $rc, want 2 (usage error)"
done

echo "lint_smoke: PASS"
