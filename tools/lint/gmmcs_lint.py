#!/usr/bin/env python3
"""gmmcs-lint: conformance analyzer for the Global-MMCS tree.

Three passes share one compilation-database loader (tools/lint/frontend.py)
and one suppression syntax. Two conformance rules live in the compiler,
not here (DESIGN.md §10.5): `class [[nodiscard]] Result` with
-Werror=unused-result rejects a discarded Result, and -Werror=switch-enum
rejects a switch over an enum that does not name every enumerator. Wire
codec drift, hostile decode lengths, payload copies and dangling deferred
captures are caught at runtime by the round-trip, fuzz, zero-copy and
sanitized chaos tests (DESIGN.md §14-§16), not here.

  layering         every `#include "mod/..."` edge is checked against the
                   declared layer DAG
                       common
                         -> sim / transport / xml
                         -> broker / rtp / media
                         -> h323 / sip / xgsp / soap / streaming /
                            admire / baseline
                         -> core
                   Upward includes are errors; so is any cycle in the
                   actual module graph (same-layer edges are allowed as
                   long as they stay acyclic). New top-level src/ dirs
                   must be added to LAYERS or they are errors too.

  result           `.value()` needs a dominating ok()-style check
                   earlier in the same function (conservative text
                   dominance — suppress the rare false positive with a
                   reason).

  determinism      a run is a pure function of config + seed (DESIGN.md
                   §9), so src/ may not read the wall clock, draw ambient
                   randomness outside common/random.*, format a pointer,
                   touch a threading primitive (this rule ignores
                   suppressions) or name an unordered container
                   (details at the pass).

Suppressions: a line (or the line directly above it) containing
`gmmcs-lint: allow(<rule>): <reason>` is exempt from <rule>. The reason
text is mandatory; an empty reason is itself reported (rule
`suppression-reason`). `allow(all)` exists for generated code only. No
other comment suppresses: a clang-tidy `NOLINT` waives nothing here.

Usage:
  gmmcs_lint.py [--compile-commands build/compile_commands.json]
                [--root REPO_ROOT] [--passes layering,result,determinism]
                [--jobs N]

Exit status 0 = clean, 1 = findings, 2 = usage error.
"""

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from frontend import (SUPPRESS_RE, add_frontend_args,  # noqa: E402
                      collect_files, discover_compile_commands, load_sources)

# --------------------------------------------------------------------------
# Configuration (edit here when the tree grows).
# --------------------------------------------------------------------------

# Module -> layer rank. An include from module A to module B is legal iff
# rank(B) <= rank(A); ties are legal but must stay acyclic.
LAYERS = {
    "common": 0,
    "sim": 1,
    "transport": 1,
    "xml": 1,
    "broker": 2,
    "rtp": 2,
    "media": 2,
    "h323": 3,
    "sip": 3,
    "xgsp": 3,
    "soap": 3,
    "streaming": 3,
    "admire": 3,
    "baseline": 3,
    "core": 4,
}


SUPPRESSION_REASON_MSG = ("gmmcs-lint suppression without a reason "
                          "(write `gmmcs-lint: allow(rule): why`)")

# --------------------------------------------------------------------------
# Shared infrastructure.
# --------------------------------------------------------------------------

def check_suppression_reasons(src):
    """The meta-rule: every suppression must carry a reason."""
    findings = []
    for idx, line in enumerate(src.raw):
        m = SUPPRESS_RE.search(line)
        if m and not (m.group(2) or "").strip():
            findings.append((src.rel, idx + 1, "suppression-reason",
                             SUPPRESSION_REASON_MSG))
    return findings


# --------------------------------------------------------------------------
# Pass 1: layering.
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')


def pass_layering(sources, layers=None):
    layers = layers if layers is not None else LAYERS
    findings = []
    edges = {}  # (from_mod, to_mod) -> first (rel, lineno) seen
    for src in sources:
        parts = src.rel.split("/")
        if len(parts) < 3 or parts[0] != "src":
            continue
        mod = parts[1]
        if mod not in layers:
            findings.append((src.rel, 1, "layering",
                             f"module '{mod}' is not in the declared layer DAG "
                             f"(add it to LAYERS in gmmcs_lint.py)"))
            continue
        for idx, line in enumerate(src.code):
            for m in INCLUDE_RE.finditer(line):
                inc = m.group(1)
                if "/" not in inc:
                    continue
                to_mod = inc.split("/")[0]
                if to_mod not in layers:
                    continue  # not a src/ module include (e.g. generated)
                if to_mod == mod:
                    continue
                if src.suppressed(idx + 1, "layering"):
                    continue
                if layers[to_mod] > layers[mod]:
                    findings.append(
                        (src.rel, idx + 1, "layering",
                         f"upward include: layer-{layers[mod]} module '{mod}' "
                         f"includes layer-{layers[to_mod]} module '{to_mod}' "
                         f"(\"{inc}\")"))
                edges.setdefault((mod, to_mod), (src.rel, idx + 1))
    # Cycle detection over the actual module graph (covers same-layer ties).
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
    state = {}  # 0=visiting, 1=done
    stack = []

    def dfs(node):
        state[node] = 0
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 0:
                cycle = stack[stack.index(nxt):] + [nxt]
                rel, lineno = edges[(node, nxt)]
                findings.append((rel, lineno, "layering-cycle",
                                 "module cycle: " + " -> ".join(cycle)))
            elif nxt not in state:
                dfs(nxt)
        stack.pop()
        state[node] = 1

    for node in sorted(graph):
        if node not in state:
            dfs(node)
    return findings


# --------------------------------------------------------------------------
# Pass 2: result discipline.
# --------------------------------------------------------------------------

VALUE_USE_RE = re.compile(r"\.\s*value\s*\(\s*\)")


def _function_span_start(src, lineno):
    """Crude function boundary: the line after the most recent column-0 `}`."""
    for j in range(lineno - 1, -1, -1):
        if src.code[j].startswith("}"):
            return j + 1
    return 0


def _value_receiver(code_line, col):
    """Receiver expression of a `.value()` at `col` (index of the dot).
    Returns (kind, name): kind 'var' for an identifier (possibly through
    std::move), 'chain' for a direct call chain like parse(x).value()."""
    i = col - 1
    while i >= 0 and code_line[i].isspace():
        i -= 1
    if i >= 0 and code_line[i] == ")":
        depth = 0
        while i >= 0:
            if code_line[i] == ")":
                depth += 1
            elif code_line[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        inner = code_line[i + 1:col].rstrip(") \t")
        j = i - 1
        while j >= 0 and (code_line[j].isalnum() or code_line[j] in "_:"):
            j -= 1
        callee = code_line[j + 1:i]
        if callee.endswith("move"):
            m = re.match(r"\s*([A-Za-z_]\w*)\s*$", inner)
            if m:
                return "var", m.group(1)
        return "chain", callee or "<expr>"
    j = i
    while j >= 0 and (code_line[j].isalnum() or code_line[j] == "_"):
        j -= 1
    name = code_line[j + 1:i + 1]
    return ("var", name) if name else ("chain", "<expr>")


def pass_result(sources):
    """`.value()` needs a dominating ok()-style check in its function."""
    findings = []
    for src in sources:
        for idx, line in enumerate(src.code):
            for m in VALUE_USE_RE.finditer(line):
                lineno = idx + 1
                if src.suppressed(lineno, "unchecked-value"):
                    continue
                kind, name = _value_receiver(line, m.start())
                if kind == "var" and name:
                    start = _function_span_start(src, idx)
                    span = "\n".join(src.code[start:idx + 1])
                    guard = re.compile(
                        rf"\b{re.escape(name)}\s*\.\s*ok\s*\(\s*\)"
                        rf"|!\s*{re.escape(name)}\b"
                        rf"|(?:if|while)\s*\(\s*{re.escape(name)}\s*\)"
                        rf"|\(\s*{re.escape(name)}\s*&&|&&\s*{re.escape(name)}\b"
                        rf"|\b{re.escape(name)}\s*\?")
                    if guard.search(span):
                        continue
                    findings.append((src.rel, lineno, "unchecked-value",
                                     f"'{name}.value()' has no dominating "
                                     f"'{name}.ok()'-style check in this function"))
                else:
                    findings.append((src.rel, lineno, "unchecked-value",
                                     f".value() chained directly onto '{name}(...)' "
                                     f"— bind the Result and check ok() first"))
    return findings


# --------------------------------------------------------------------------
# Pass 3: determinism (DESIGN.md §9).
# --------------------------------------------------------------------------
#
# A run must be a pure function of its config and seed. The rules below
# reject the ways C++ code usually breaks that:
#
#   wall-clock           std::chrono, clock_gettime, time(nullptr)...:
#                        simulated code uses sim time (common/time.hpp).
#                        Benches may read the wall clock; they live outside
#                        src/ and are not scanned.
#   ambient-random       std::rand, std::random_device, mt19937...: all
#                        randomness flows through the seeded gmmcs::Rng
#                        (src/common/random.*, the one allowed home).
#   pointer-format       "%p" or streaming a void*: addresses differ run to
#                        run (ASLR), so they never reach logs or metrics.
#   raw-threading        std::mutex, std::thread and friends: the simulator
#                        is one serial event loop, so src/ creates no threads
#                        and takes no locks. No allowed home, and no
#                        suppression waives it.
#   unordered-iteration  any std::unordered_* container or <unordered_...>
#                        header: hash iteration order differs across
#                        libstdc++ versions, so src/ keeps ordered maps (or
#                        an OpenIndex, whose order nothing reads).

DETERMINISM_RULES = {
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
    "unordered-iteration": [
        r"\bstd::unordered_\w+",
        r"#\s*include\s*<unordered_\w+>",
    ],
}
DETERMINISM_RES = {rule: re.compile("|".join(pats))
                   for rule, pats in DETERMINISM_RULES.items()}

# Files where a rule is allowed wholesale: the sanctioned homes.
DETERMINISM_HOMES = {
    "ambient-random": {"src/common/random.hpp", "src/common/random.cpp"},
}

DETERMINISM_MESSAGES = {
    "wall-clock": "wall-clock time in simulated code (use sim time, common/time.hpp)",
    "ambient-random": "ambient randomness (use the seeded gmmcs::Rng, common/random.hpp)",
    "pointer-format": "formats a pointer value (nondeterministic under ASLR)",
    "raw-threading": "threading primitive in src/ (the simulator is serial: no threads, no locks)",
    "unordered-iteration": "unordered container in src/ (hash order is not deterministic; "
                           "use std::map / std::set)",
}


def pass_determinism(sources):
    findings = []
    for src in sources:
        for idx, line in enumerate(src.code):
            lineno = idx + 1
            for rule, pat in DETERMINISM_RES.items():
                if src.rel in DETERMINISM_HOMES.get(rule, ()):
                    continue
                if pat.search(line) and (
                        rule == "raw-threading"
                        or not src.suppressed(lineno, rule)):
                    findings.append((src.rel, lineno, rule,
                                     DETERMINISM_MESSAGES[rule]))
    return findings


PASSES = {
    "layering": pass_layering,
    "result": pass_result,
    "determinism": pass_determinism,
}


def run(root, compile_commands=None, passes=None, jobs=1):
    files = collect_files(root, compile_commands)
    sources = load_sources(root, files, jobs=jobs)
    findings = []
    for src in sources:
        findings.extend(check_suppression_reasons(src))
    for name in (passes or PASSES):
        findings.extend(PASSES[name](sources))
    findings.sort()
    return findings, len(files)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_frontend_args(ap)
    ap.add_argument("--passes", default=None,
                    help="comma-separated subset of: " + ",".join(PASSES))
    args = ap.parse_args()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"gmmcs-lint: no src/ under {root}", file=sys.stderr)
        return 2
    ccdb = args.compile_commands or discover_compile_commands(root)
    passes = None
    if args.passes:
        passes = [p.strip() for p in args.passes.split(",") if p.strip()]
        unknown = [p for p in passes if p not in PASSES]
        if unknown:
            print(f"gmmcs-lint: unknown pass(es): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    findings, nfiles = run(root, ccdb, passes, jobs=args.jobs)
    for rel, lineno, rule, msg in findings:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"gmmcs-lint: {len(findings)} finding(s) in {nfiles} files")
        return 1
    print(f"gmmcs-lint: {nfiles} files scanned, clean "
          f"(passes: {', '.join(passes or PASSES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
