#!/usr/bin/env python3
"""Lint frontend for the Global-MMCS tree.

gmmcs_lint.py scans every src/ header plus every src/ translation unit
the build actually compiles, read through the build tree's compilation
database so the scan matches exactly what ships.

Provides:
  discover_compile_commands(root)   first build*/compile_commands.json
  collect_files(root, ccdb)         headers + DB-listed TUs (walk fallback)
  strip_comments(lines)             //- and /* */-comments blanked
  SUPPRESS_RE                       the one suppression syntax
  SourceFile                        raw + comment-stripped lines of a file
  load_sources(root, files, jobs)   parse files, optionally in parallel

`jobs > 1` parses translation units on a process pool — parsing
(read + comment strip) is the per-file frontend cost shared
by every gmmcs-lint pass, so it is the part worth parallelising;
the passes themselves run on the already-parsed sources.
"""

import json
import re
import sys
from pathlib import Path

# `gmmcs-lint: allow(<rule>): <reason>`; group 1 is the rule, group 2 the
# reason. No other comment (a clang-tidy NOLINT included) suppresses.
SUPPRESS_RE = re.compile(
    r"gmmcs-lint:\s*allow\(([a-z-]+)\)(?::?\s*(.*?))?\s*(?:\*/)?\s*$")


def discover_compile_commands(root):
    """First compile_commands.json found under root's build trees
    (build/ first, then build-*/ alphabetically), or None."""
    root = Path(root)
    trees = [root / "build"] + sorted(
        p for p in root.glob("build-*") if p.is_dir())
    for tree in trees:
        cc = tree / "compile_commands.json"
        if cc.is_file():
            return cc
    return None


def collect_files(root, compile_commands):
    """src/ headers plus every src/ TU the build compiles (falls back to a
    directory walk when no database is available)."""
    src = root / "src"
    files = set(src.rglob("*.hpp")) | set(src.rglob("*.h"))
    used_db = False
    if compile_commands and compile_commands.is_file():
        try:
            db = json.loads(compile_commands.read_text())
            for entry in db:
                f = Path(entry["file"])
                if not f.is_absolute():
                    f = Path(entry.get("directory", ".")) / f
                f = f.resolve()
                if src.resolve() in f.parents and f.is_file():
                    files.add(f)
                    used_db = True
        except (json.JSONDecodeError, KeyError, OSError) as e:
            print(f"gmmcs-lint: warning: bad compilation database: {e}",
                  file=sys.stderr)
    if not used_db:
        files |= set(src.rglob("*.cpp"))
    return sorted(files)


def strip_comments(lines):
    """Blanks //- and /* */-comments; suppressions are read from raw lines."""
    out = []
    in_block = False
    for line in lines:
        res = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                res.append(line[i])
                i += 1
        out.append("".join(res))
    return out


class SourceFile:
    """A parsed source file: raw lines and comment-stripped lines."""

    def __init__(self, path, rel):
        self.rel = rel
        self.raw = path.read_text().splitlines()
        self.code = strip_comments(self.raw)

    def suppressed(self, lineno, rule):
        """True if 1-based `lineno` (or the line above) allows `rule`."""
        for look in (lineno - 1, lineno - 2):
            if look < 0 or look >= len(self.raw):
                continue
            m = SUPPRESS_RE.search(self.raw[look])
            if m and m.group(1) in (rule, "all"):
                return True
        return False


def _parse_source(item):
    path, rel = item
    return SourceFile(Path(path), rel)


def load_sources(root, files, jobs=1):
    """Parses `files` into SourceFile objects, keyed relative to `root`.
    With jobs > 1 the parse fans out over a process pool; results come
    back in input order either way so pass output stays deterministic."""
    items = [(str(f), f.resolve().relative_to(root).as_posix())
             for f in files]
    if jobs > 1 and len(items) > 1:
        try:
            from multiprocessing import Pool
            with Pool(min(jobs, len(items))) as pool:
                return pool.map(_parse_source, items)
        except (ImportError, OSError):
            pass  # no fork / restricted env: fall through to serial
    return [_parse_source(it) for it in items]


def add_frontend_args(ap):
    """Installs the shared CLI surface (--compile-commands, --root, --jobs)
    on an argparse parser."""
    ap.add_argument("--compile-commands", type=Path, default=None,
                    help="compile_commands.json from the build tree "
                         "(default: auto-discover under build*/)")
    ap.add_argument("--root", type=Path, default=Path.cwd(),
                    help="repository root (default: cwd)")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="parse translation units on N processes")
