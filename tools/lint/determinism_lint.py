#!/usr/bin/env python3
"""Determinism linter for the Global-MMCS simulation core.

The repo's headline invariant is that a run is a pure function of its
config + seed: same inputs, byte-identical metrics (DESIGN.md §9). This linter statically rejects the ways C++ code usually
breaks that, anywhere under src/:

  wall-clock           std::chrono / clock_gettime / time(nullptr)...:
                       simulated code must use sim time (common/time.hpp).
                       Benches may measure wall clock; they live outside
                       src/ and are not scanned.
  ambient-random       std::rand, std::random_device, mt19937...: all
                       randomness must flow through the seeded gmmcs::Rng
                       (src/common/random.*, the one allowed home).
  pointer-format       "%p" / streaming void*: addresses differ run to run
                       (ASLR), so they must never reach logs or metrics.
  raw-threading        std::mutex / std::thread & friends anywhere: the
                       simulator runs on one serial event loop, so src/
                       creates no threads and takes no locks. This rule
                       has no allowed home and ignores suppressions.
  unordered-iteration  range-for over a std::unordered_{map,set} member:
                       hash-order iteration feeding scheduling or output
                       is run-to-run nondeterministic across libstdc++
                       versions. Order-independent uses (sums, counts)
                       carry an explicit suppression.

Suppressions: a line (or the line directly above it) containing
`det-lint: allow(<rule>)` or `NOLINT` is exempt — used sparingly, with a
justification. raw-threading cannot be suppressed.

Usage:
  determinism_lint.py [--compile-commands build/compile_commands.json]
                      [--root REPO_ROOT] [--jobs N]

File discovery and parsing are shared with gmmcs_lint.py
(tools/lint/frontend.py): every src/ translation unit listed in the
compilation database (so exactly what the build compiles, nothing stale)
plus all src/ headers; falls back to a directory walk when no database
is available. Exit status 0 = clean, 1 = findings, 2 = usage error.
"""

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from frontend import (add_frontend_args, collect_files,  # noqa: E402
                      discover_compile_commands, load_sources)

RULES = {
    "wall-clock": [
        r"std::chrono",
        r"#\s*include\s*<chrono>",
        r"\bgettimeofday\b",
        r"\bclock_gettime\b",
        r"\btimespec_get\b",
        r"\b(steady|system|high_resolution)_clock\b",
        r"\btime\s*\(\s*(NULL|nullptr|0)\s*\)",
        r"\bclock\s*\(\s*\)",
    ],
    "ambient-random": [
        r"\bstd::rand\b",
        r"\bsrand\s*\(",
        r"\brand\s*\(\s*\)",
        r"\brandom_device\b",
        r"\bmt19937(_64)?\b",
        r"\bminstd_rand",
        r"\barc4random",
        r"\bdrand48\b",
        r"#\s*include\s*<random>",
    ],
    "pointer-format": [
        r'"[^"\n]*%p',
        r"<<\s*static_cast<\s*(const\s+)?void\s*\*\s*>",
    ],
    "raw-threading": [
        r"\bstd::(mutex|recursive_mutex|shared_mutex|timed_mutex)\b",
        r"\bstd::condition_variable\b",
        r"\bstd::(thread|jthread)\b",
        r"\bstd::(lock_guard|scoped_lock|unique_lock|shared_lock)\b",
        r"\bstd::(async|promise|packaged_task)\b",
        r"\bpthread_[a-z_]+\s*\(",
        r"#\s*include\s*<(thread|mutex|shared_mutex|condition_variable|future)>",
    ],
}

# Files where a rule is allowed wholesale: the sanctioned homes.
ALLOWED_FILES = {
    "ambient-random": {"src/common/random.hpp", "src/common/random.cpp"},
}

# Rules no `det-lint: allow` / NOLINT comment can waive.
UNSUPPRESSIBLE = {"raw-threading"}

MESSAGES = {
    "wall-clock": "wall-clock time in simulated code (use sim time, common/time.hpp)",
    "ambient-random": "ambient randomness (use the seeded gmmcs::Rng, common/random.hpp)",
    "pointer-format": "formats a pointer value (nondeterministic under ASLR)",
    "raw-threading": "threading primitive in src/ (the simulator is serial: no threads, no locks)",
    "unordered-iteration": (
        "range-for over unordered container '%s' (hash order is not deterministic; "
        "suppress only if the loop body is order-independent)"
    ),
}

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<.*>\s+([A-Za-z_]\w*)\s*[;{=]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*:\s*(?:\w+(?:->|\.))?([A-Za-z_]\w*)\s*\)")
INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')

COMPILED_RULES = {
    rule: [re.compile(p) for p in pats] for rule, pats in RULES.items()
}


def collect_unordered_names(sources):
    """Per-file sets of identifiers declared as unordered containers, in
    the file itself or in src/ headers it directly includes (the class
    header of a .cpp). Scoped per file so a std::map member that happens
    to share a name with another class's unordered member elsewhere does
    not false-positive."""
    own = {}
    includes = {}
    for src in sources:
        names = set()
        incs = []
        for line in src.code:
            for m in UNORDERED_DECL_RE.finditer(line):
                names.add(m.group(1))
            for m in INCLUDE_RE.finditer(line):
                incs.append("src/" + m.group(1))
        own[src.rel] = names
        includes[src.rel] = incs
    scoped = {}
    for rel in own:
        names = set(own[rel])
        for inc in includes[rel]:
            names |= own.get(inc, set())
        scoped[rel] = names
    return scoped


def lint_source(src, unordered_names):
    findings = []
    for idx, line in enumerate(src.code):
        for rule, patterns in COMPILED_RULES.items():
            if src.rel in ALLOWED_FILES.get(rule, ()):
                continue
            # pointer-format must look inside string literals; everything
            # else matches the comment-stripped code directly.
            for pat in patterns:
                if pat.search(line):
                    if rule in UNSUPPRESSIBLE or \
                            not src.suppressed(idx + 1, rule, tool="det-lint"):
                        findings.append((idx + 1, rule, MESSAGES[rule]))
                    break
        for m in RANGE_FOR_RE.finditer(line):
            name = m.group(1)
            if name in unordered_names and \
                    not src.suppressed(idx + 1, "unordered-iteration",
                                       tool="det-lint"):
                findings.append(
                    (idx + 1, "unordered-iteration",
                     MESSAGES["unordered-iteration"] % name))
    return findings


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_frontend_args(ap)
    args = ap.parse_args()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"determinism-lint: no src/ under {root}", file=sys.stderr)
        return 2

    ccdb = args.compile_commands or discover_compile_commands(root)
    files = collect_files(root, ccdb, tool="determinism-lint")
    sources = load_sources(root, files, jobs=args.jobs)
    scoped_names = collect_unordered_names(sources)
    total = 0
    for src in sources:
        for lineno, rule, msg in lint_source(
                src, scoped_names.get(src.rel, set())):
            print(f"{src.rel}:{lineno}: [{rule}] {msg}")
            total += 1
    if total:
        print(f"determinism-lint: {total} finding(s) in {len(files)} files")
        return 1
    print(f"determinism-lint: {len(files)} files scanned, clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
