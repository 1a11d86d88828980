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
#                     any violation prints a replayable chaos-spec. The
#                     chaos property tests are not run here: the
#                     sanitized ctest (default mode) runs them at the
#                     default seed, and props runs them 40x deeper.
#   props [seed [scale]]
#                     sanitized (asan,ubsan) deep run of every seeded
#                     property (tests/property.hpp), the decoder fuzzer
#                     and its corpus replay included: each property binary
#                     runs with GMMCS_PROP_SEED=seed and GMMCS_PROP_SCALE=
#                     scale (default 40). Seed defaults to the commit SHA;
#                     a failing case prints the one line that replays it
#                     alone
#   simsig            sim-clock parity of the perfbench workloads: runs
#                     each workload named in scripts/sim_signatures.txt
#                     (--seed 2003 --seconds 1 --trace 0) and diffs the
#                     "sim n=... mean=... p50=..." signature line it
#                     prints on stderr against that file. A change that
#                     moves a sim result regenerates the file and
#                     explains the move in EXPERIMENTS.md
#   profile <workload> [seconds]
#                     unbiased line-level host profile of a perfbench
#                     workload (default 10 s of media): builds perfbench's
#                     own CMake project into .bench_build/profile with -g
#                     and `-pg -static` at link only (no mcount calls, so
#                     small hot functions are not inflated, and a static
#                     libc is sampled too), runs it untraced, and maps the
#                     gmon.out PC histogram to source lines with
#                     addr2line -f -i (tools/profile/gmon_lines.py): each
#                     layer's share (src/sim, src/broker, src/transport,
#                     src/common, libc malloc/free, libc memcpy,
#                     perfbench), the top functions (each sample folded
#                     into its innermost repository function) and the top
#                     lines
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
  cmake --build "$BUILD" -j "$(nproc)" --target fabric_chaos
  (cd "$BUILD" && ./bench/fabric_chaos --seed "$SEED" --plans "$PLANS")
  echo "check.sh chaos: $PLANS generated plans clean (seed $SEED)"
  exit 0
fi

if [[ "$MODE" == "props" ]]; then
  ROOT="$(cd "$(dirname "$0")/.." && pwd)"
  SEED="${2:-}"
  if [[ -z "$SEED" ]]; then
    SEED="$((16#$(git -C "$ROOT" rev-parse --short=12 HEAD)))"
  fi
  SCALE="${3:-40}"
  PROPS=(test_property test_sim test_common test_payload test_control_plane
         test_roundtrip_property test_chaos test_decode_fuzz)
  BUILD="$ROOT/build-sanitize-address-undefined"
  cmake -B "$BUILD" -S "$ROOT" -DGMMCS_SANITIZE="address,undefined" >/dev/null
  cmake --build "$BUILD" -j "$(nproc)" --target "${PROPS[@]}"
  export GMMCS_PROP_SEED="$SEED" GMMCS_PROP_SCALE="$SCALE"
  for t in "${PROPS[@]}"; do "$BUILD/tests/$t" --gtest_brief=1; done
  echo "check.sh props: every property clean at scale $SCALE (GMMCS_PROP_SEED=$SEED)"
  exit 0
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

if [[ "$MODE" == "profile" ]]; then
  ROOT="$(cd "$(dirname "$0")/.." && pwd)"
  WORKLOAD="${2:?usage: check.sh profile <workload> [seconds]}"
  PROFILE_SECONDS="${3:-10}"
  BUILD="$ROOT/.bench_build/profile"
  cmake -S "$ROOT/perfbench" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-g \
    "-DCMAKE_EXE_LINKER_FLAGS=-pg -static" >/dev/null
  cmake --build "$BUILD" --target perfbench -j "$(nproc)" >/dev/null
  RUN="$(mktemp -d)"
  trap 'rm -rf "$RUN"' EXIT
  # gmon.out lands in the working directory when the binary exits.
  (cd "$RUN" && "$BUILD/perfbench" --workload "$WORKLOAD" --seed 2003 \
    --seconds "$PROFILE_SECONDS" --trace 0 >/dev/null)
  python3 "$ROOT/tools/profile/gmon_lines.py" "$BUILD/perfbench" "$RUN/gmon.out" "$ROOT"
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
