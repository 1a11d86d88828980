#!/usr/bin/env bash
# clang-tidy over every translation unit in the build, using .clang-tidy.
# Usage: scripts/tidy.sh [build-dir]   (default: build-tidy, configured here)
#
# Exits 0 with a notice when clang-tidy is not installed (GCC-only
# toolchains); CI provides clang.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-tidy}"

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "tidy.sh: clang-tidy not found on PATH; skipping (GCC-only toolchain)." >&2
  exit 0
fi

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null

if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -p "$BUILD" -quiet "$ROOT/src/.*\.cpp"
else
  # Fallback: drive clang-tidy file by file off the compilation database.
  python3 - "$BUILD" "$ROOT" <<'EOF'
import json, subprocess, sys
build, root = sys.argv[1], sys.argv[2]
db = json.load(open(f"{build}/compile_commands.json"))
files = sorted({e["file"] for e in db if "/src/" in e["file"]})
rc = 0
for f in files:
    r = subprocess.run(["clang-tidy", "-p", build, "-quiet", f])
    rc = rc or r.returncode
sys.exit(rc)
EOF
fi
