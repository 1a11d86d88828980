#!/usr/bin/env bash
# Sanitized build + full test run: the gate for fabric/self-healing work.
#
# Usage: scripts/check.sh [mode-or-sanitizers]
#   (none)            address,undefined (the default gate)
#   asan | address    AddressSanitizer + UndefinedBehaviorSanitizer
#   lint              gmmcs-lint (layering, result, determinism) and its
#                     fixture selftest; no build tree required. Budgeted: the
#                     whole mode must finish inside LINT_BUDGET_S
#                     (default 180 s) so the gate stays cheap enough to
#                     run on every commit
#   chaos [seed [n]]  sanitized (asan,ubsan) generated-plan batch: builds
#                     the chaos bench and runs n generated fault plans
#                     (default 40) through the invariant oracle. Seed
#                     defaults to the current commit SHA so every commit
#                     explores fresh plans while staying reproducible —
#                     any violation prints a replayable chaos-spec.
#   fuzz [seed [n]]   sanitized (asan,ubsan) decoder fuzzing: replays the
#                     committed shrunk corpus (tests/fuzz_seeds/), then
#                     runs n seeded mutations (default 500) per decoder
#                     family under the no-throw / O(N)-allocation
#                     invariants. Seed defaults to the commit SHA; any
#                     violation prints a shrunk hex reproducer to commit.
#   simsig            sim-clock parity of the perfbench workloads: runs
#                     each workload named in scripts/sim_signatures.txt
#                     (--seed 2003 --seconds 1 --trace 0) and diffs the
#                     "sim n=... mean=... p50=..." signature line it
#                     prints on stderr against that file. A change that
#                     moves a sim result regenerates the file and
#                     explains the move in EXPERIMENTS.md
#   <list>            any raw comma-separated -fsanitize= list; each
#                     sanitizer set gets its own build tree
set -euo pipefail

MODE="${1:-address,undefined}"

if [[ "$MODE" == "chaos" ]]; then
  ROOT="$(cd "$(dirname "$0")/.." && pwd)"
  SEED="${2:-}"
  if [[ -z "$SEED" ]]; then
    # Derive the batch seed from the commit: hex short-SHA as an integer.
    SEED="$((16#$(git -C "$ROOT" rev-parse --short=12 HEAD)))"
  fi
  PLANS="${3:-40}"
  BUILD="$ROOT/build-sanitize-address-undefined"
  cmake -B "$BUILD" -S "$ROOT" -DGMMCS_SANITIZE="address,undefined" >/dev/null
  cmake --build "$BUILD" -j "$(nproc)" --target fabric_chaos test_chaos
  # The property tests first (fixed seeds + corpus replay), then the
  # commit-seeded batch.
  "$BUILD/tests/test_chaos"
  (cd "$BUILD" && ./bench/fabric_chaos --seed "$SEED" --plans "$PLANS")
  echo "check.sh chaos: $PLANS generated plans clean (seed $SEED)"
  exit 0
fi

if [[ "$MODE" == "fuzz" ]]; then
  ROOT="$(cd "$(dirname "$0")/.." && pwd)"
  SEED="${2:-}"
  if [[ -z "$SEED" ]]; then
    SEED="$((16#$(git -C "$ROOT" rev-parse --short=12 HEAD)))"
  fi
  ITERS="${3:-500}"
  exec "$ROOT/tools/fuzz/run_fuzz.sh" --seed "$SEED" --iters "$ITERS"
fi

if [[ "$MODE" == "simsig" ]]; then
  ROOT="$(cd "$(dirname "$0")/.." && pwd)"
  EXPECTED="$ROOT/scripts/sim_signatures.txt"
  ACTUAL="$(mktemp)"
  trap 'rm -f "$ACTUAL"' EXIT
  for w in $(awk '{print $2}' "$EXPECTED"); do
    # The signature goes to stderr; stdout (the result JSON) is dropped.
    python3 "$ROOT/perfbench/run.py" --workload "$w" --seed 2003 --seconds 1 --trace 0 \
      2>&1 >/dev/null | grep ' sim n=' >>"$ACTUAL"
  done
  diff -u "$EXPECTED" "$ACTUAL"
  echo "check.sh simsig: $(wc -l <"$EXPECTED") perfbench sim signatures identical"
  exit 0
fi

if [[ "$MODE" == "lint" ]]; then
  ROOT="$(cd "$(dirname "$0")/.." && pwd)"
  LINT_BUDGET_S="${LINT_BUDGET_S:-180}"
  SECONDS=0
  python3 "$ROOT/tools/lint/tests/test_gmmcs_lint.py"
  # gmmcs_lint.py reads the first build*/compile_commands.json it finds, so
  # the scan matches exactly what ships; without one it walks src/.
  python3 "$ROOT/tools/lint/gmmcs_lint.py" --root "$ROOT" --jobs "$(nproc)"
  echo "check.sh lint: gmmcs-lint clean in ${SECONDS}s (budget ${LINT_BUDGET_S}s)"
  if (( SECONDS > LINT_BUDGET_S )); then
    echo "check.sh lint: wall-clock budget exceeded" >&2
    exit 1
  fi
  exit 0
fi

case "$MODE" in
  asan|address) SANITIZE="address,undefined" ;;
  *)            SANITIZE="$MODE" ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-sanitize-${SANITIZE//,/-}"

cmake -B "$BUILD" -S "$ROOT" -DGMMCS_SANITIZE="$SANITIZE" >/dev/null
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
