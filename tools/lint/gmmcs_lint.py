#!/usr/bin/env python3
"""gmmcs-lint: multi-pass conformance analyzer for the Global-MMCS tree.

Global-MMCS is a bundle of protocol stacks (XGSP, H.323, SIP, broker
events, RTP, SOAP, RTSP) that interoperate through layered translation,
all running on one deterministic simulation. Seven passes share one
compilation-database loader (tools/lint/frontend.py) and one suppression
syntax. Two conformance rules live in the compiler, not here (DESIGN.md
§10.5): `class [[nodiscard]] Result` with -Werror=unused-result rejects a
discarded Result, and -Werror=switch-enum rejects a switch over an enum
that does not name every enumerator.

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

  codec-symmetry   for each wire-message family the encode body's write
                   sequence (ByteWriter ops, helpers spliced, loops kept
                   as groups) must equal the decode body's read sequence.
                   Dispatch decoders (one switch over the tag byte) are
                   compared per-case against the encoder that writes that
                   tag. Text/XML codecs are checked by field coverage:
                   struct members written by serialize and members
                   assigned by parse must be the same set.

  determinism      a run is a pure function of config + seed (DESIGN.md
                   §9), so src/ may not read the wall clock, draw ambient
                   randomness outside common/random.*, format a pointer,
                   touch a threading primitive (this rule ignores
                   suppressions) or range-for over an unordered container
                   (details at the pass).

  lifetime         deferred-capture escape analysis (DESIGN.md §14):
                   every lambda that flows into a deferred-execution
                   sink (EventLoop::schedule_*,
                   ServiceCenter::submit/submit_batch, stored callback
                   slots, and anything a may-defer fixpoint proves
                   stores its callable parameter) has each capture
                   classified; a by-reference / raw-pointer / `this`
                   capture outliving its scope is an error unless the
                   captured object's type is GMMCS_PINNED (lifetime
                   pinned to the run) or the callable is structurally
                   proven to be cancelled/unbound before the object
                   dies (details at the pass).

  copy             copy discipline over the zero-copy payload plane
                   (DESIGN.md §15): by-value byte-buffer parameters,
                   deep copies of shared payloads and allocating reads
                   that only inspect (details at the pass).

  wire             untrusted-input taint analysis over the decode plane
                   (DESIGN.md §16): wire-read lengths and counts must be
                   bounded before they size an allocation, a slice, an
                   index or a loop (details at the pass).

Suppressions: a line (or the line directly above it) containing
`gmmcs-lint: allow(<rule>): <reason>` is exempt from <rule>. The reason
text is mandatory; an empty reason is itself reported (rule
`suppression-reason`). `allow(all)` exists for generated code only. No
other comment suppresses: a clang-tidy `NOLINT` waives nothing here.

Usage:
  gmmcs_lint.py [--compile-commands build/compile_commands.json]
                [--root REPO_ROOT] [--passes layering,result,...]
                [--jobs N] [--fix]

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

# Binary codec families: files whose ByteWriter/ByteReader functions are
# paired and sequence-compared. Pairing is automatic: Class::encode or
# Class::serialize vs Class::decode or Class::parse; write_X vs read_X and
# encode_X vs decode_X helpers; and tag-dispatch decoders (a switch whose
# cases read) vs the encoder mentioning the same tag enumerator/constant.
BINARY_CODEC_FILES = [
    "src/broker/event.cpp",
    "src/h323/messages.cpp",
    "src/rtp/packet.cpp",
    "src/rtp/rtcp.cpp",
]

# Text/XML codec families, checked by member coverage. `structs` lists
# (header, struct-name) whose data members form the field universe;
# `encode`/`decode` name the paired functions in `impl`.
TEXT_CODEC_FAMILIES = [
    dict(name="sip-message", impl="src/sip/message.cpp",
         structs=[("src/sip/message.hpp", "SipMessage")],
         encode=["SipMessage::serialize"], decode=["SipMessage::parse"],
         # `user`/`host` belong to SipUri, parsed separately.
         ignore=set()),
    dict(name="sip-sdp", impl="src/sip/sdp.cpp",
         structs=[("src/sip/sdp.hpp", "Sdp"), ("src/sip/sdp.hpp", "SdpMedia")],
         encode=["Sdp::serialize"], decode=["Sdp::parse"],
         ignore=set()),
    dict(name="rtsp", impl="src/streaming/rtsp.cpp",
         structs=[("src/streaming/rtsp.hpp", "RtspMessage")],
         encode=["RtspMessage::serialize"], decode=["RtspMessage::parse"],
         ignore=set()),
    dict(name="xgsp-message", impl="src/xgsp/messages.cpp",
         structs=[("src/xgsp/messages.hpp", "Message")],
         encode=["Message::to_xml"], decode=["Message::from_xml"],
         ignore=set()),
]

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
# Pass 3: codec symmetry.
# --------------------------------------------------------------------------
#
# Binary codecs: we extract, for every function in a codec file, the
# ordered sequence of ByteWriter/ByteReader operations (u8/u16/u32/u64/
# lstr/str/raw/skip), with calls to sibling helper functions spliced in
# and loop bodies kept as nested groups:  ["u8", ["u32"], "lstr"] means
# u8, a repeated u32, then lstr. str/raw/skip normalize to "raw" (all are
# length-carried byte runs). Then we pair encoders with decoders and
# compare sequences; a mismatch is wire drift.

OP_NORMALIZE = {"u8": "u8", "u16": "u16", "u32": "u32", "u64": "u64",
                "lstr": "lstr", "str": "raw", "raw": "raw", "skip": "raw",
                # Zero-copy read-side siblings: a view consumes the same
                # length-carried byte run a raw write produced.
                "view": "raw", "str_view": "raw", "lstr_view": "lstr", "rest": "raw",
                # Checked bounded reads (wire pass): each consumes exactly
                # the wire bytes of its unchecked twin, so a decoder that
                # hardens a length/count read stays mirror-symmetric with
                # the encoder's plain write.
                "read_len_bounded": "u32", "read_count_u8": "u8",
                "read_count_u16": "u16", "read_count_u32": "u32"}

FUNC_HEAD_RE = re.compile(
    r"(?:^|\n)\s*(?:template\s*<[^>]*>\s*)?"
    r"(?P<head>[A-Za-z_][\w:<>,&*\s\[\]]*?)\s*"
    r"\(", re.S)


def _extract_functions(text):
    """Yields (name, params, body, offset) for every function definition.

    Walks the text tracking brace depth; `namespace X {` is transparent,
    class/struct/enum bodies are skipped (methods defined inline in codec
    files are not a thing here). A function is a top-level `... name(args)
    [const] {` with a balanced body."""
    funcs = []
    i, n = 0, len(text)
    depth = 0
    while i < n:
        c = text[i]
        if c == "{":
            # Look backwards for what opened this brace.
            seg_start = max(text.rfind(";", 0, i), text.rfind("}", 0, i),
                            text.rfind("{", 0, i)) + 1
            seg = text[seg_start:i]
            if re.search(r"\b(namespace)\b", seg):
                depth += 0  # transparent: descend
                i += 1
                continue
            if re.search(r"\b(struct|class|enum|union)\b", seg) and "(" not in seg:
                i = _skip_braces(text, i)
                continue
            pm = re.search(r"([\w:~]+)\s*\(", seg)
            if pm and not re.search(r"\b(if|for|while|switch|return|catch)\s*\($",
                                    seg[:pm.end()]):
                name = pm.group(1)
                close = _matching_paren(text, seg_start + pm.end() - 1)
                params = text[seg_start + pm.end():close] if close > 0 else ""
                end = _skip_braces(text, i)
                funcs.append((name, params, text[i + 1:end - 1], i))
                i = end
                continue
            i += 1
        else:
            i += 1
    return funcs


def _matching_paren(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _skip_braces(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def _io_vars(params, body, cls):
    """Names of ByteWriter/ByteReader variables visible in a function."""
    names = set()
    for m in re.finditer(rf"\b{cls}\s*&?\s*([A-Za-z_]\w*)", params):
        names.add(m.group(1))
    for m in re.finditer(rf"\b{cls}\s+([A-Za-z_]\w*)\s*[;({{]", body):
        names.add(m.group(1))
    return names


def _cond_key(cond):
    """Stable identity of a flag-guard condition: the sorted k-constants it
    mentions (`flags & kHasExt` == `m.flags & kHasExt`), else the condition
    with whitespace squeezed out."""
    consts = sorted(set(re.findall(r"\bk[A-Z]\w*", cond)))
    return ",".join(consts) if consts else re.sub(r"\s+", "", cond)


def _extract_seq(body, io_names, helpers):
    """Nested op sequence of `body`. Loops become sub-lists; flag-guarded
    `if` (and `else`) bodies that perform ops become ("cond", key, ops)
    groups, so `if (flags & kHasExt) w.u32(ext)` on the encode side is
    symmetric with `if (flags & kHasExt) ext = r.u32()` on the decode side
    — same guard key, same ops — regardless of how each side spells the
    flags expression."""
    tokens = []
    io_alt = "|".join(sorted(io_names)) if io_names else r"(?!x)x"
    helper_alt = "|".join(sorted(helpers)) if helpers else r"(?!x)x"
    tok_re = re.compile(
        rf"\b(?P<io>{io_alt})\s*\.\s*(?P<op>read_len_bounded|read_count_u8|"
        rf"read_count_u16|read_count_u32|"
        rf"u8|u16|u32|u64|lstr_view|lstr|str_view|str|raw|view|rest|skip)\s*\("
        rf"|\b(?P<helper>{helper_alt})\s*\("
        rf"|\b(?P<loop>for|while)\s*\("
        rf"|\b(?P<cond>if)\s*\(")

    def branch_extent(after_close):
        j = after_close
        while j < len(body) and body[j].isspace():
            j += 1
        if j < len(body) and body[j] == "{":
            end = _skip_braces(body, j)
            return body[j + 1:end - 1], end
        end = body.find(";", j) + 1 or len(body)
        return body[j:end], end

    i = 0
    while i < len(body):
        m = tok_re.search(body, i)
        if not m:
            break
        if m.group("op"):
            tokens.append(OP_NORMALIZE[m.group("op")])
            i = m.end()
        elif m.group("helper"):
            tokens.append(("call", m.group("helper")))
            i = m.end()
        elif m.group("loop"):  # loop: wrap the body extent in a group
            close = _matching_paren(body, body.index("(", m.start()))
            if close < 0:
                i = m.end()
                continue
            inner, end = branch_extent(close + 1)
            group = _extract_seq(inner, io_names, helpers)
            if group:
                tokens.append(group)
            i = end
        else:  # if: ops inside become a keyed conditional group
            open_idx = body.index("(", m.start())
            close = _matching_paren(body, open_idx)
            if close < 0:
                i = m.end()
                continue
            cond = body[open_idx + 1:close]
            # Ops in the condition itself (`if (r.u8() != kTag) ...`)
            # always execute: they stay flat, before any group.
            tokens.extend(_extract_seq(cond, io_names, helpers))
            inner, end = branch_extent(close + 1)
            group = _extract_seq(inner, io_names, helpers)
            key = _cond_key(cond)
            if group:
                tokens.append(("cond", key, group))
            # An `else` branch with ops is its own group under the negated
            # key (an `else if` re-enters the `if` handling naturally).
            em = re.match(r"\s*else\b(?!\s*if\b)", body[end:])
            if em:
                e_inner, end = branch_extent(end + em.end())
                e_group = _extract_seq(e_inner, io_names, helpers)
                if e_group:
                    tokens.append(("cond", "!" + key, e_group))
            i = end
    return tokens


def _splice(seq, seqs_by_name, active=()):
    """Resolves ("call", helper) markers into the helper's own sequence."""
    out = []
    for tok in seq:
        if isinstance(tok, list):
            out.append(_splice(tok, seqs_by_name, active))
        elif isinstance(tok, tuple) and tok[0] == "cond":
            out.append(("cond", tok[1],
                        _splice(tok[2], seqs_by_name, active)))
        elif isinstance(tok, tuple):
            name = tok[1]
            if name in active:  # recursion guard
                continue
            out.extend(_splice(seqs_by_name.get(name, []), seqs_by_name,
                               active + (name,)))
        else:
            out.append(tok)
    return out


def _fmt_seq(seq):
    parts = []
    for tok in seq:
        if isinstance(tok, list):
            parts.append(f"[{_fmt_seq(tok)}]*")
        elif isinstance(tok, tuple) and tok[0] == "cond":
            parts.append(f"if<{tok[1]}>[{_fmt_seq(tok[2])}]")
        else:
            parts.append(tok)
    return " ".join(parts)


CASE_RE = re.compile(r"\bcase\s+(?:[\w:]+::)?(\w+)\s*:")


def _split_dispatch(body):
    """For a tag-dispatch decoder: (prefix_text, {label: case_text}) or None.

    A dispatch decoder reads a tag then switches on it, reading fields in
    the cases. Returns None when the body has no switch (or the switch
    reads nothing — a validation switch, not a dispatch)."""
    m = re.search(r"\bswitch\s*\(", body)
    if not m:
        return None
    close = _matching_paren(body, body.index("(", m.start()))
    j = body.find("{", close)
    if j < 0:
        return None
    end = _skip_braces(body, j)
    switch_body = body[j + 1:end - 1]
    prefix = body[:m.start()]
    cases = {}
    pending = []
    pos = 0
    segments = []  # (labels, text)
    for cm in CASE_RE.finditer(switch_body):
        if pending and switch_body[pos:cm.start()].strip(" \n"):
            segments.append((pending, switch_body[pos:cm.start()]))
            pending = []
        pending.append(cm.group(1))
        pos = cm.end()
    dm = re.search(r"\bdefault\s*:", switch_body[pos:])
    tail_end = pos + dm.start() if dm else len(switch_body)
    if pending:
        segments.append((pending, switch_body[pos:tail_end]))
    for labels, text in segments:
        for lab in labels:
            cases[lab] = text
    return prefix, cases


def pass_codec_symmetry(sources, codec_files=None, text_families=None):
    codec_files = codec_files if codec_files is not None else BINARY_CODEC_FILES
    text_families = text_families if text_families is not None else TEXT_CODEC_FAMILIES
    findings = []
    by_rel = {s.rel: s for s in sources}
    for rel in codec_files:
        src = by_rel.get(rel)
        if src is None:
            continue
        findings.extend(_check_binary_codec(src))
    for fam in text_families:
        findings.extend(_check_text_codec(by_rel, fam))
    return findings


def _check_binary_codec(src):
    findings = []
    funcs = _extract_functions(src.text)
    names = [f[0] for f in funcs]
    helper_names = {n for n in names if "::" not in n}

    writer_seqs, reader_seqs = {}, {}
    raw_seqs = {}
    offsets = {}
    bodies = {}
    for name, params, body, off in funcs:
        wr = _io_vars(params, body, "ByteWriter")
        rd = _io_vars(params, body, "ByteReader")
        offsets[name] = off
        bodies[name] = body
        if wr:
            raw_seqs[name] = _extract_seq(body, wr, helper_names)
            writer_seqs[name] = raw_seqs[name]
        elif rd:
            raw_seqs[name] = _extract_seq(body, rd, helper_names)
            reader_seqs[name] = raw_seqs[name]

    def resolved(name):
        return _splice(raw_seqs.get(name, []), raw_seqs)

    def report(where, enc, dec, enc_seq, dec_seq):
        lineno = src.line_of(offsets.get(where, 0))
        if src.suppressed(lineno, "codec-symmetry"):
            return
        findings.append(
            (src.rel, lineno, "codec-symmetry",
             f"encode/decode drift for {enc} vs {dec}: "
             f"write seq [{_fmt_seq(enc_seq)}] != read seq [{_fmt_seq(dec_seq)}]"))

    # --- method pairs: Class::{encode,serialize} vs Class::{decode,parse} ---
    paired_decoders = set()
    for name in writer_seqs:
        if "::" not in name:
            continue
        cls = name.rsplit("::", 1)[0]
        for dec_suffix in ("decode", "parse"):
            dec = f"{cls}::{dec_suffix}"
            if dec in reader_seqs:
                enc_seq, dec_seq = resolved(name), resolved(dec)
                if enc_seq and dec_seq and enc_seq != dec_seq:
                    report(dec, name, dec, enc_seq, dec_seq)
                paired_decoders.add(dec)

    # --- helper pairs: write_X/read_X, encode_X/decode_X ---
    for name in writer_seqs:
        for w_pre, r_pre in (("write_", "read_"), ("encode_", "decode_")):
            if name.startswith(w_pre):
                dec = r_pre + name[len(w_pre):]
                if dec in reader_seqs:
                    enc_seq, dec_seq = resolved(name), resolved(dec)
                    if enc_seq != dec_seq:
                        report(dec, name, dec, enc_seq, dec_seq)
                    paired_decoders.add(dec)

    # --- dispatch decoders: per-case comparison against tag encoders ---
    for dec_name, seq in reader_seqs.items():
        if dec_name in paired_decoders:
            continue
        split = _split_dispatch(bodies[dec_name])
        if split is None:
            continue
        prefix_text, cases = split
        rd = _io_vars("", bodies[dec_name], "ByteReader") or \
            _io_vars(next(p for n, p, b, o in funcs if n == dec_name),
                     bodies[dec_name], "ByteReader")
        case_seqs = {lab: _splice(_extract_seq(text, rd, helper_names), raw_seqs)
                     for lab, text in cases.items()}
        if not any(case_seqs.values()):
            continue  # validation switch, not a dispatch decoder
        prefix_seq = _splice(_extract_seq(prefix_text, rd, helper_names), raw_seqs)
        # Pair each encoder with the tags its body mentions.
        for enc_name in writer_seqs:
            tags = set(re.findall(r"\b(?:[\w:]+::)?(k\w+)\b", bodies[enc_name]))
            hit = sorted(tags & set(case_seqs))
            for tag in hit:
                enc_seq = resolved(enc_name)
                want = prefix_seq + case_seqs[tag]
                if enc_seq and enc_seq != want:
                    report(dec_name, f"{enc_name} (tag {tag})", dec_name,
                           enc_seq, want)
    return findings


MEMBER_DECL_RE = re.compile(
    r"^\s*(?!return\b|using\b|static\b|friend\b|typedef\b|public|private|protected)"
    r"[\w:<>,\s&*]+?[\s&*](\w+)\s*(?:=[^;]*|\{[^;]*\})?;\s*$")


def _struct_members(src, struct):
    """Data-member names of `struct` as declared in `src`."""
    m = re.search(rf"\b(?:struct|class)\s+{struct}\b[^;{{]*\{{", src.text)
    if not m:
        return set()
    end = _skip_braces(src.text, src.text.index("{", m.start()))
    body = src.text[m.start():end]
    members = set()
    for line in body.splitlines():
        if "(" in line or ")" in line:
            continue
        dm = MEMBER_DECL_RE.match(line)
        if dm:
            members.add(dm.group(1))
    return members


def _check_text_codec(by_rel, fam):
    impl = by_rel.get(fam["impl"])
    if impl is None:
        return []
    members = set()
    for header_rel, struct in fam["structs"]:
        hdr = by_rel.get(header_rel)
        if hdr is not None:
            members |= _struct_members(hdr, struct)
    members -= set(fam.get("ignore", ()))
    if not members:
        return []
    funcs = {n: (b, o) for n, p, b, o in _extract_functions(impl.text)}

    def gather(fn_names, pattern_fn):
        got = set()
        for fn in fn_names:
            if fn not in funcs:
                continue
            body = funcs[fn][0]
            got |= pattern_fn(body)
        return got

    written = gather(fam["encode"],
                     lambda body: {w for w in members
                                   if re.search(rf"\b{re.escape(w)}\b", body)})
    assigned = gather(fam["decode"],
                      lambda body: {w for w in members if re.search(
                          rf"\b\w+\s*\.\s*{re.escape(w)}\s*"
                          rf"(?:=[^=]|\.push_back|\.emplace_back)", body)})
    findings = []
    anchor_fn = fam["decode"][0]
    lineno = impl.line_of(funcs[anchor_fn][1]) if anchor_fn in funcs else 1
    if impl.suppressed(lineno, "codec-symmetry"):
        return []
    for field in sorted(written - assigned):
        findings.append((impl.rel, lineno, "codec-symmetry",
                         f"{fam['name']}: field '{field}' is serialized by "
                         f"{'/'.join(fam['encode'])} but never assigned by "
                         f"{'/'.join(fam['decode'])} (lost on round-trip)"))
    for field in sorted(assigned - written):
        findings.append((impl.rel, lineno, "codec-symmetry",
                         f"{fam['name']}: field '{field}' is parsed by "
                         f"{'/'.join(fam['decode'])} but never written by "
                         f"{'/'.join(fam['encode'])} (phantom field)"))
    return findings


# --------------------------------------------------------------------------
# Pass 4: determinism (DESIGN.md §9).
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
#   unordered-iteration  range-for over a std::unordered_{map,set}: hash
#                        order differs across libstdc++ versions. An
#                        order-independent loop (a sum, a key harvest that
#                        is sorted next) carries a suppression with that
#                        reason.

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
    "unordered-iteration": (
        "range-for over unordered container '%s' (hash order is not deterministic; "
        "suppress only if the loop body is order-independent)"
    ),
}

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<.*>\s+([A-Za-z_]\w*)\s*[;{=]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*:\s*(?:\w+(?:->|\.))?([A-Za-z_]\w*)\s*\)")


def _unordered_names(sources):
    """Per-file sets of identifiers declared as unordered containers, in
    the file itself or in src/ headers it directly includes (the class
    header of a .cpp). Scoped per file so a std::map member that happens
    to share a name with another class's unordered member elsewhere does
    not false-positive."""
    own = {}
    includes = {}
    for src in sources:
        own[src.rel] = {m.group(1) for line in src.code
                        for m in UNORDERED_DECL_RE.finditer(line)}
        includes[src.rel] = ["src/" + m.group(1) for line in src.code
                             for m in INCLUDE_RE.finditer(line)]
    return {rel: names.union(*(own.get(inc, set()) for inc in includes[rel]))
            for rel, names in own.items()}


def pass_determinism(sources):
    findings = []
    scoped_names = _unordered_names(sources)
    for src in sources:
        names = scoped_names[src.rel]
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
            for m in RANGE_FOR_RE.finditer(line):
                if m.group(1) in names and \
                        not src.suppressed(lineno, "unordered-iteration"):
                    findings.append(
                        (src.rel, lineno, "unordered-iteration",
                         DETERMINISM_MESSAGES["unordered-iteration"]
                         % m.group(1)))
    return findings


# --------------------------------------------------------------------------
# Shared C++ structure scanners (lifetime and copy passes).
# --------------------------------------------------------------------------

CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:GMMCS_PINNED\s*\([^)]*\)\s+)*"
    r"(?!GMMCS_)(\w+)(?:\s+final)?[^;{}()=]*\{")


def _scan_classes(text):
    """Yields (class_name, body_start, body_end) for every class/struct
    definition (including nested) in `text`."""
    out = []
    for m in CLASS_HEAD_RE.finditer(text):
        if re.search(r"\benum\s+(?:class|struct)\b", text[max(0, m.start() - 8):m.end()]):
            continue
        open_idx = m.end() - 1
        end = _skip_braces(text, open_idx)
        out.append((m.group(1), open_idx + 1, end - 1))
    return out


FUNC_SIG_RE = re.compile(
    r"(?P<name>(?:\w+::)*~?\w+)\s*\((?P<params>(?:[^()]|\([^()]*\))*)\)\s*"
    r"(?P<annos>(?:const|noexcept|final|override|->\s*[\w:<>]+|"
    r"GMMCS_\w+\s*\([^()]*\)|\s)*)$", re.S)

FUNC_KEYWORDS = {"if", "for", "while", "switch", "return", "catch", "do",
                 "sizeof", "decltype", "static_assert", "alignas", "new",
                 "delete", "throw", "assert"}


def _extract_functions_ctx(text, base_offset=0, cls=None):
    """Yields (cls, name, params, annos_text, body, body_offset) for every
    function definition in `text`, recursing into class bodies (unlike
    _extract_functions, which skips them — inline methods matter here).

    `params` is the raw parameter-list text; `annos_text` is everything
    between the closing param paren and the opening brace: const,
    noexcept, ctor init lists."""
    funcs = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c != "{":
            i += 1
            continue
        seg_start = max(text.rfind(";", 0, i), text.rfind("}", 0, i),
                        text.rfind("{", 0, i)) + 1
        seg = text[seg_start:i]
        # A `{` while the segment still has an unclosed `(` is a
        # brace-init inside an argument list (`Config{.x = 1}` in a ctor
        # init list), not a function body: step over it.
        if seg.count("(") > seg.count(")"):
            i = _skip_braces(text, i)
            continue
        # A segment that closes more parens than it opens began
        # mid-expression: the `}` before it ended a paren-nested
        # brace-init. Extend the segment back over that brace pair
        # (contents replaced by `{}` — only the shape matters here).
        while seg.count(")") > seg.count("(") and seg_start >= 1 \
                and text[seg_start - 1] == "}":
            depth, j = 0, seg_start - 1
            while j >= 0:
                if text[j] == "}":
                    depth += 1
                elif text[j] == "{":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            if j < 0:
                break
            new_start = max(text.rfind(";", 0, j), text.rfind("}", 0, j),
                            text.rfind("{", 0, j)) + 1
            seg = text[new_start:j] + "{}" + text[seg_start:i]
            seg_start = new_start
        if re.search(r"\bnamespace\b", seg):
            i += 1
            continue
        cm = CLASS_HEAD_RE.search(seg + "{")
        if cm and cm.end() == len(seg) + 1:
            end = _skip_braces(text, i)
            funcs.extend(_extract_functions_ctx(
                text[i + 1:end - 1], base_offset + i + 1, cm.group(1)))
            i = end
            continue
        if re.search(r"\b(?:struct|class|enum|union)\b[^()]*$", seg):
            # Plain aggregate (or enum): no methods inside
            # that we'd mis-parse; still recurse for nested structs with
            # methods — handled by the CLASS_HEAD_RE branch above. Enums
            # have no functions: skip.
            if re.search(r"\benum\b", seg):
                i = _skip_braces(text, i)
                continue
        # A function definition: `... name(params) [annos] {`.  Ctor init
        # lists look like `Name(...) : a_(x), b_(y) {` — try the split at
        # the first top-level `:` FIRST, because on the whole segment
        # FUNC_SIG_RE would latch onto the last init-list member call
        # (`b_(y)`) and report a "function" named `b_`.
        colon = _init_list_split(seg)
        if colon >= 0:
            m2 = FUNC_SIG_RE.search(seg[:colon])
            if m2 and m2.group("name") not in FUNC_KEYWORDS \
                    and not m2.group("name").startswith("GMMCS_"):
                end = _skip_braces(text, i)
                funcs.append((cls, m2.group("name"), m2.group("params"),
                              (m2.group("annos") or "") + seg[colon:],
                              text[i + 1:end - 1], base_offset + i + 1))
                i = end
                continue
        # Plain function: find the param list by scanning back from the
        # brace.
        m = FUNC_SIG_RE.search(seg)
        if m and m.group("name") not in FUNC_KEYWORDS \
                and not m.group("name").startswith("GMMCS_"):
            end = _skip_braces(text, i)
            funcs.append((cls, m.group("name"), m.group("params"),
                          m.group("annos") or "",
                          text[i + 1:end - 1], base_offset + i + 1))
            i = end
            continue
        i += 1
    return funcs


def _init_list_split(seg):
    """Index of a ctor init-list `:` in `seg` (not `::`, not inside parens),
    scanning left to right after the last `)`. -1 if none."""
    depth = 0
    i = 0
    n = len(seg)
    while i < n:
        c = seg[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < n and seg[i + 1] == ":":
                i += 2
                continue
            if i > 0 and seg[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


def _blank_braced(text):
    """Length-preserving copy of `text` with the interiors of all brace
    groups blanked (newlines kept): leaves only top-level declarations."""
    out = list(text)
    depth = 0
    for i, c in enumerate(text):
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif depth > 0 and c != "\n":
            out[i] = " "
    return "".join(out)


# --------------------------------------------------------------------------
# Pass 5: deferred-capture lifetime analysis.
# --------------------------------------------------------------------------
#
# The broker fabric is a system of deferred work: every event, fan-out
# job, keepalive probe and reconnect hook is a callable handed to the
# event loop (or parked in a callback slot) and run later, when the
# stack frame that built it is long gone. PR 7's chaos generator showed
# what that costs when a capture outlives its object: the deferred kPing
# pong job captured a raw StreamConnection* that ghost eviction freed
# before the job ran (an ASan use-after-free, replayed today by
# tests/lifetime_regression_test.cpp and the kping fixture in
# tools/lint/tests/test_lifetime.py). This pass makes the bug class
# statically checked (DESIGN.md §14):
#
#   1. Sink inventory. The seed sinks are the deferred-execution entry
#      points (EventLoop::schedule_at/schedule_after,
#      ServiceCenter::submit/submit_batch). A may-defer fixpoint over the
#      call graph then grows the set: a function that stores a
#      callable-typed parameter (SmallFn /
#      Callback / std::function / their aliases) into a member, a
#      container, or a ctor init list, or forwards it into a known sink,
#      is itself a sink (on_message, on_accept, bind, on_disconnect,
#      on_route_repair, PeriodicTask's ctor, SmallFn's own ctor, ...).
#
#   2. Capture classification. Every lambda at a sink call site (an
#      inline literal or a named local passed by name) has each capture
#      classified by declaration lookup through the enclosing function's
#      signature, its body, and the owning class's member types: owned
#      values and shared_ptr/weak_ptr copies are safe; `[&]`, `[=]` in a
#      member function, `&x`, `this`, and raw pointers escape and must
#      be justified.
#
#   3. Justifications. An escaping capture is legal when the captured
#      object provably outlives the deferral:
#        - its class is GMMCS_PINNED("reason"): lifetime pinned to the
#          run (Network, Host, EventLoop, the broker/server objects) —
#          the reason string is mandatory;
#        - registration-on-self: the raw pointer is derived from the
#          very object the callable is stored on
#          (conn->on_message([this, raw = conn.get()] ...));
#        - cancel-discipline: the sink's TaskId lands in a member and
#          the owning class cancels that member somewhere (the
#          syn_timer_ / PeriodicTask::stop shape);
#        - release-discipline: a bind-style sink whose captured object's
#          class also calls unbind (the port-table handler is released
#          by the object's own teardown path).
#      Everything else is a finding. `--fix` rewrites a raw capture
#      whose source is a shared_ptr into the weak_ptr + lock + early-
#      return shape of the PR 7 kPing fix, idempotently.

DEFER_SINKS = {"schedule_at", "schedule_after", "submit", "submit_batch"}

# Sink method names that register a datagram handler in a port table
# owned by someone else; the release-discipline carve-out applies.
BIND_SINKS = {"bind", "bind_ephemeral"}

PINNED_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+"
    r"GMMCS_PINNED\s*\(\s*(?:\"(?P<reason>[^\"]*)\")?\s*\)\s*"
    r"(?P<name>\w+)")

# Fix records produced by the last pass_lifetime run, consumed by
# apply_fixes: dicts with rel/lineno/old/new/var/weak.
LIFETIME_FIXES = []


def _signature_text(text, body_off):
    """The declarator text of the function whose body starts at
    `body_off` (everything from the previous ;/}/{ to the open brace):
    return type, name, parameter list, annotations, ctor init list."""
    brace = body_off - 1
    seg_start = max(text.rfind(";", 0, brace), text.rfind("}", 0, brace),
                    text.rfind("{", 0, brace)) + 1
    return text[seg_start:brace]


def _matching_bracket(text, open_idx):
    """Index just past the `]` matching the `[` at open_idx."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def _split_args(text):
    """Splits an argument/capture list on top-level commas (parens,
    brackets and braces nested arbitrarily)."""
    out, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            out.append(text[start:i])
            start = i + 1
    tail = text[start:]
    if tail.strip() or out:
        out.append(tail)
    return out


def _sig_params(sig):
    """Parameter-list text of a declarator (handles ctor init lists)."""
    m = FUNC_SIG_RE.search(sig)
    if not m:
        colon = _init_list_split(sig)
        if colon >= 0:
            m = FUNC_SIG_RE.search(sig[:colon])
    return m.group("params") if m else ""


def _param_names(params):
    """Name of each parameter, in order (None for unnamed)."""
    out = []
    for p in _split_args(params):
        p = p.split("=")[0].strip()
        m = re.search(r"(\w+)\s*$", p)
        out.append(m.group(1) if m and not _TYPE_TAIL_RE.search(p) else None)
    return out


# A parameter whose text *ends* in one of these is unnamed (`Mutex&`).
_TYPE_TAIL_RE = re.compile(r"(?:[&*>]|\bconst|\bauto|\bvoid)\s*$")


def _callable_aliases(sources):
    """Type names that denote callables: SmallFn, std::function aliases,
    and aliases of those (Callback, Handler, ...), by fixpoint."""
    names = {"SmallFn"}
    alias_rhs = []  # (alias, rhs) pairs
    alias_re = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
    for src in sources:
        for m in alias_re.finditer(src.text):
            alias_rhs.append((m.group(1), m.group(2)))
    changed = True
    while changed:
        changed = False
        for alias, rhs in alias_rhs:
            if alias in names:
                continue
            if re.search(r"\bfunction\s*<", rhs) or \
                    any(re.search(rf"\b{re.escape(n)}\b", rhs) for n in names):
                names.add(alias)
                changed = True
    return names


def _is_callable_type(t, aliases):
    if re.search(r"\bfunction\s*<", t):
        return True
    return any(re.search(rf"\b{re.escape(a)}\b", t) for a in aliases)


def _ptr_aliases(sources):
    """`using XPtr = std::shared_ptr<T>`-style aliases:
    name -> (kind, element class)."""
    out = {}
    alias_re = re.compile(
        r"\busing\s+(\w+)\s*=\s*(?:std::)?"
        r"(shared_ptr|unique_ptr|weak_ptr)\s*<\s*(?:const\s+)?([\w:]+)")
    kinds = {"shared_ptr": "shared", "unique_ptr": "unique",
             "weak_ptr": "weak"}
    for src in sources:
        for m in alias_re.finditer(src.text):
            out[m.group(1)] = (kinds[m.group(2)],
                               m.group(3).rsplit("::", 1)[-1])
    return out


def _kind_of_type(tstr, mark, ptr_aliases):
    """Classifies a declared type: ('weak'|'shared'|'unique'|'ptr'|'ref'|
    'val', element-class). `mark` is the declarator's */& if any."""
    t = tstr.strip()
    m = re.match(r"(?:std::)?(shared_ptr|unique_ptr|weak_ptr)\s*<\s*"
                 r"(?:const\s+)?([\w:]+)", t)
    if m:
        kind = {"shared_ptr": "shared", "unique_ptr": "unique",
                "weak_ptr": "weak"}[m.group(1)]
        elem = m.group(2).rsplit("::", 1)[-1]
    else:
        short = re.sub(r"<.*", "", t).rsplit("::", 1)[-1]
        if short in ptr_aliases:
            kind, elem = ptr_aliases[short]
        else:
            kind, elem = "val", short
    if mark == "*":
        return "ptr", elem
    if mark in ("&", "&&"):
        return "ref", elem
    return kind, elem


_MEMBER_DECL_RE = re.compile(
    r"^\s*(?!using\b|typedef\b|friend\b|static\b|return\b|public\b"
    r"|private\b|protected\b|enum\b|class\b|struct\b|template\b|case\b)"
    r"(?:mutable\s+)?(?:const\s+)?"
    r"(?P<type>[A-Za-z_][\w:]*(?:\s*<[^;{}]*>)?)\s*"
    r"(?P<mark>[&*]?)\s*(?P<name>\w+)\s*"
    r"(?:GMMCS_\w+\s*\([^()]*\)\s*)?"
    r"(?:=[^;]*|\{[^;]*\})?;", re.M)


def _collect_member_types(sources, ptr_aliases):
    """cls -> {member: (kind, element class)} from class-body data-member
    declarations (top level only; method bodies blanked)."""
    out = {}
    for src in sources:
        for cls, b0, b1 in _scan_classes(src.text):
            body = _blank_braced(src.text[b0:b1])
            for m in _MEMBER_DECL_RE.finditer(body):
                out.setdefault(cls, {})[m.group("name")] = _kind_of_type(
                    m.group("type"), m.group("mark"), ptr_aliases)
    return out


def _collect_pinned(sources):
    """Classes annotated GMMCS_PINNED("reason"); an empty reason is its
    own finding — the annotation is a claim a reviewer must be able to
    audit."""
    pinned, findings = set(), []
    for src in sources:
        for m in PINNED_CLASS_RE.finditer(src.text):
            pinned.add(m.group("name"))
            if not (m.group("reason") or "").strip():
                lineno = src.line_of(m.start())
                if not src.suppressed(lineno, "lifetime"):
                    findings.append(
                        (src.rel, lineno, "lifetime",
                         f"GMMCS_PINNED on '{m.group('name')}' has no "
                         f"reason string (write GMMCS_PINNED(\"why this "
                         f"object outlives every deferred callable\"))"))
    return pinned, findings


_GET_CALL_RE = re.compile(r"^([\w.\->]+?)\s*(?:\.|->)\s*get\s*\(\s*\)$")


def _elem_of_init(init, ptr_aliases, ret_types=None):
    """('shared'|'unique'|'ptr'|None, element class) judged from an
    initializer expression — make_shared/unique, a Ptr-alias ctor, `new`,
    or a call to a function whose declared return type is an owning
    handle (`StreamConnection::connect` returning StreamConnectionPtr)."""
    init = init.strip()
    m = re.search(r"make_(shared|unique)\s*<\s*([\w:\s]+?)\s*[,>]", init)
    if m:
        return ({"shared": "shared", "unique": "unique"}[m.group(1)],
                m.group(2).strip().rsplit("::", 1)[-1])
    m = re.match(r"(?:[\w:]+::)?(\w+)\s*[({]", init)
    if m and m.group(1) in ptr_aliases:
        return ptr_aliases[m.group(1)]
    m = re.search(r"\bnew\s+([\w:]+)", init)
    if m:
        return "shared", m.group(1).rsplit("::", 1)[-1]
    m = re.match(r"(?:[\w:]+::)?(\w+)\s*\(", init)
    if m and ret_types:
        r = ret_types.get(m.group(1))
        if r is not None:
            return r
    return None, None


class _LifetimeCtx:
    """Everything declaration lookup needs for one enclosing function."""

    def __init__(self, src, cls, sig, body, off, model):
        self.src = src
        self.cls = cls
        self.sig = sig
        self.body = body
        self.off = off
        self.model = model  # the _LifetimeModel

    def resolve(self, name):
        """(kind, elem, init) for `name` via the function signature, the
        body, then the owning class's members. init is the declaration's
        initializer text ('' when none)."""
        pat = re.compile(
            r"(?:^|[(,;{])\s*(?:const\s+)?"
            r"(?P<type>auto|[A-Za-z_][\w:]*(?:\s*<[^;{}]*>)?)\s*"
            r"(?P<mark>\*|&&|&)?\s*"
            rf"\b{re.escape(name)}\b\s*(?P<after>=(?!=)|[;,)({{])")
        for text in (self.sig, self.body):
            m = pat.search(text)
            if not m:
                continue
            init = ""
            if m.group("after").startswith("="):
                semi = text.find(";", m.end())
                init = text[m.end():semi if semi >= 0 else len(text)]
            t = m.group("type")
            if t == "auto":
                kind, elem = _elem_of_init(init, self.model.ptr_aliases,
                                           self.model.ret_types)
                if m.group("mark") == "*":
                    return "ptr", elem, init
                if kind is not None:
                    return kind, elem, init
                if re.search(r"weak_ptr|weak_from_this", init):
                    return "weak", None, init
                if _GET_CALL_RE.match(init.strip()):
                    return "ptr", None, init
                return "val", None, init
            return (*_kind_of_type(t, m.group("mark") or "",
                                   self.model.ptr_aliases), init)
        if self.cls is not None:
            mem = self.model.member_types.get(self.cls, {}).get(name)
            if mem is not None:
                return (*mem, "")
        return None

    def elem_class_of(self, name):
        """Pointee class of a smart/raw-pointer variable, or None."""
        r = self.resolve(name)
        return r[1] if r else None


class _LifetimeModel:
    def __init__(self):
        self.pinned = set()
        self.ptr_aliases = {}
        self.member_types = {}
        self.callable_aliases = set()
        self.sink_names = set()
        self.sink_ctors = set()
        self.sink_owners = {}  # sink name -> classes defining it
        self.ret_types = {}  # function base name -> (kind, elem)
        self.cls_text = {}   # cls -> concatenated sig+body text


def _stores_callable(body, sig, pname, sinks, sink_ctors):
    """True if the function stores or forwards callable parameter
    `pname` somewhere that outlives the call: a member/container
    assignment, a ctor init-list member, or an argument to a known
    sink (by name or sink-class construction)."""
    pv = rf"(?:std::move\s*\(\s*{pname}\s*\)|{pname})"
    if re.search(rf"[\w\])]\s*=\s*{pv}\s*[;,)]", body):
        return True
    if re.search(rf"\.\s*(?:push_back|emplace_back|emplace|insert|assign)"
                 rf"\s*\([^;]*?(?<![\w]){pv}(?![\w])", body):
        return True
    if re.search(rf"\w+_\s*[({{]\s*{pv}\s*[)}}]", sig):
        return True  # ctor init list: fn_(std::move(fn))
    for m in re.finditer(r"\b(\w+)\s*\(", body):
        callee = m.group(1)
        if callee not in sinks and callee not in sink_ctors:
            continue
        close = _matching_paren(body, m.end() - 1)
        args = body[m.end():close]
        if re.search(rf"(?<![\w]){pv}(?![\w])", args):
            return True
    for m in re.finditer(r"make_(?:unique|shared)\s*<\s*([\w:\s]+?)\s*[,>]"
                         r"[^(]*\(", body):
        if m.group(1).strip().rsplit("::", 1)[-1] in sink_ctors:
            close = _matching_paren(body, m.end() - 1)
            args = body[m.end():close]
            if re.search(rf"(?<![\w]){pv}(?![\w])", args):
                return True
    return False


def _build_lifetime_model(sources, funcs, extra_sinks):
    model = _LifetimeModel()
    model.callable_aliases = _callable_aliases(sources)
    model.ptr_aliases = _ptr_aliases(sources)
    model.member_types = _collect_member_types(sources, model.ptr_aliases)
    model.sink_names = set(DEFER_SINKS) | set(BIND_SINKS) | set(extra_sinks)

    for src, cls, name, sig, body, off in funcs:
        if cls is not None:
            model.cls_text.setdefault(cls, []).append(sig + "\n" + body)
        # Record functions whose declared return type is an owning
        # handle, so `auto c = StreamConnection::connect(...)` resolves.
        base = name.rsplit("::", 1)[-1]
        if cls is not None and base.lstrip("~") == cls:
            continue  # ctor/dtor
        rm = re.search(
            rf"([A-Za-z_][\w:]*(?:<[^<>;]*>)?)\s*(\*)?\s+"
            rf"(?:[\w:]+::)?{re.escape(base)}\s*\(", sig)
        if rm:
            kind, elem = _kind_of_type(rm.group(1), rm.group(2) or "",
                                       model.ptr_aliases)
            if kind in ("shared", "unique", "ptr") and \
                    base not in model.ret_types:
                model.ret_types[base] = (kind, elem)
    model.cls_text = {c: "\n".join(t) for c, t in model.cls_text.items()}

    # May-defer fixpoint over functions with callable-typed parameters.
    with_callables = []
    for src, cls, name, sig, body, off in funcs:
        params = _sig_params(sig)
        cparams = []
        for p in _split_args(params):
            p = p.split("=")[0].strip()
            m = re.search(r"(\w+)\s*$", p)
            if m and not _TYPE_TAIL_RE.search(p) and \
                    _is_callable_type(p[:m.start()], model.callable_aliases):
                cparams.append(m.group(1))
        if not cparams:
            continue
        base = name.rsplit("::", 1)[-1]
        is_ctor = cls is not None and base.lstrip("~") == cls
        with_callables.append((base, cls, cparams, sig, body, is_ctor))
    changed = True
    while changed:
        changed = False
        for base, cls, cparams, sig, body, is_ctor in with_callables:
            if (cls in model.sink_ctors) if is_ctor \
                    else (base in model.sink_names):
                continue
            if any(_stores_callable(body, sig, p, model.sink_names,
                                    model.sink_ctors) for p in cparams):
                if is_ctor:
                    model.sink_ctors.add(cls)
                else:
                    model.sink_names.add(base)
                    if cls is not None:
                        model.sink_owners.setdefault(base, set()).add(cls)
                changed = True
    return model


def _classify_capture(cap, ctx, recv_ids, sink_name, assign_target,
                      recv=""):
    """Returns None (safe) or (message, fix) for one capture of a lambda
    escaping into sink `sink_name`. `fix` is a dict for apply_fixes or
    None when no mechanical rewrite applies."""
    cap = cap.strip()
    if not cap:
        return None
    model = ctx.model

    def pinned(cls):
        return cls is not None and cls in model.pinned

    def recv_exclusive():
        """True when the sink's receiver chain is rooted in an
        exclusively-owned handle (a value or unique_ptr member/local):
        the stored callable dies with its owner, so captures of the
        owner (`this`, value members) cannot outlive it."""
        ids = re.findall(r"\w+", recv)
        if ids and ids[0] == "this":
            ids = ids[1:]
        if not ids:
            return False
        r = ctx.resolve(ids[0])
        return bool(r) and r[0] in ("val", "unique")

    def cancel_ok():
        if not assign_target or ctx.cls is None:
            return False
        return bool(re.search(
            rf"\bcancel\w*\s*\(\s*[^()]*\b{re.escape(assign_target)}\b",
            model.cls_text.get(ctx.cls, "")))

    def release_ok(obj_cls):
        if sink_name not in BIND_SINKS or obj_cls is None:
            return False
        return bool(re.search(r"\bunbind\w*\s*\(",
                              model.cls_text.get(obj_cls, "")))

    def self_storage():
        """True for an unqualified (or this->) call to a sink method of
        the capturing class itself: the callable lands in a member of
        `this` and dies with it."""
        ids = re.findall(r"\w+", recv)
        if ids and ids != ["this"]:
            return False
        return ctx.cls is not None and \
            ctx.cls in model.sink_owners.get(sink_name, ())

    def this_ok():
        return pinned(ctx.cls) or recv_exclusive() or self_storage() \
            or cancel_ok() or release_ok(ctx.cls)

    def raw_ok(elem_cls, source):
        if pinned(elem_cls):
            return True
        if source is not None and source in recv_ids:
            return True  # registration-on-self
        return cancel_ok() or release_ok(elem_cls)

    def raw_fix(cap_text, var, source):
        """weak_ptr rewrite when the raw pointer's source is a
        shared_ptr variable in scope. No fix if the source is ever
        moved-from in this function — std::weak_ptr(moved) is empty and
        the rewrite would turn the handler into a silent no-op."""
        if source is None:
            return None
        r = ctx.resolve(source)
        if not r or r[0] != "shared":
            return None
        if re.search(rf"std::move\s*\(\s*{re.escape(source)}\s*\)",
                     ctx.body):
            return None
        return dict(old=cap_text, var=var, weak=f"{var}_weak",
                    new=f"{var}_weak = std::weak_ptr({source})")

    if cap == "&":
        return (f"lambda escaping into deferred sink '{sink_name}' "
                f"captures everything by reference ([&]); name and "
                f"justify each capture", None)
    if cap == "=":
        if ctx.cls is not None and not this_ok():
            return (f"[=] in a member function implicitly captures raw "
                    f"`this` into deferred sink '{sink_name}' and "
                    f"'{ctx.cls}' is not GMMCS_PINNED", None)
        return None
    if cap == "*this":
        return None
    if cap == "this":
        if this_ok():
            return None
        return (f"raw `this` ({ctx.cls or 'unknown class'}) captured "
                f"into deferred sink '{sink_name}'; the object can die "
                f"before the callable runs — pin the class "
                f"(GMMCS_PINNED), cancel the task in teardown, or "
                f"capture a weak_ptr", None)
    if cap.startswith("&"):
        name = cap[1:].strip()
        r = ctx.resolve(name) if re.fullmatch(r"\w+", name) else None
        if r and r[0] in ("val", "ref") and pinned(r[1]):
            return None
        if r and r[0] == "val" and ctx.cls is not None \
                and name in model.member_types.get(ctx.cls, {}) \
                and recv_exclusive():
            return None  # ref to a value member, slot dies with `this`
        what = f"'&{name}'"
        return (f"by-reference capture {what} escapes into deferred sink "
                f"'{sink_name}'; the referent "
                f"{'(' + (r[1] or 'unresolved type') + ') ' if r else ''}"
                f"is not GMMCS_PINNED and may die before the callable "
                f"runs — capture by value or via weak_ptr", None)

    im = re.match(r"(\w+)\s*=\s*(.+)$", cap, re.S)
    if im:
        var, expr = im.group(1), im.group(2).strip()
        if expr == "this":
            if this_ok():
                return None
            return (f"raw `this` (as '{var} = this') captured into "
                    f"deferred sink '{sink_name}' and "
                    f"'{ctx.cls or '?'}' is not GMMCS_PINNED", None)
        if re.search(r"weak_ptr|weak_from_this", expr):
            return None
        if re.search(r"shared_from_this|make_shared", expr):
            return None
        if expr.startswith("&"):
            return (f"init-capture '{var} = {expr}' takes the address of "
                    f"a scoped object into deferred sink '{sink_name}'",
                    None)
        gm = _GET_CALL_RE.match(expr)
        if gm:
            source = gm.group(1).rsplit("->", 1)[-1].rsplit(".", 1)[-1]
            elem = ctx.elem_class_of(source)
            if raw_ok(elem, source):
                return None
            return (f"raw pointer '{var} = {expr}' (a "
                    f"{elem or '?'}*) escapes into deferred sink "
                    f"'{sink_name}' and can dangle — capture "
                    f"std::weak_ptr({source}) and lock() with an early "
                    f"return (the PR 7 kPing shape)",
                    raw_fix(cap, var, source))
        if re.fullmatch(r"std::move\s*\(\s*\w+\s*\)", expr):
            return _classify_capture(
                re.search(r"\(\s*(\w+)\s*\)", expr).group(1), ctx,
                recv_ids, sink_name, assign_target, recv)
        if re.fullmatch(r"\w+", expr):
            return _classify_plain(expr, var, cap, ctx, recv_ids,
                                   sink_name, assign_target,
                                   raw_fix)
        return None  # value-building expression: owned copy
    if re.fullmatch(r"\w+", cap):
        return _classify_plain(cap, cap, cap, ctx, recv_ids, sink_name,
                               assign_target, None)
    return None


def _classify_plain(name, var, cap_text, ctx, recv_ids, sink_name,
                    assign_target, raw_fix):
    """Classify a by-value capture of `name` (possibly through an init
    capture aliasing it as `var`)."""
    model = ctx.model
    r = ctx.resolve(name)
    if r is None:
        return None  # unresolved: assume an owned value
    kind, elem, init = r
    if kind in ("weak", "shared", "val", "ref", "unique"):
        return None  # the capture copies an owning (or weak) handle
    # kind == "ptr": a raw pointer travels into the deferral.
    if elem is not None and elem in model.pinned:
        return None
    source = None
    gm = _GET_CALL_RE.match(init.strip()) if init else None
    if gm:
        source = gm.group(1).rsplit("->", 1)[-1].rsplit(".", 1)[-1]
        if elem is None:
            elem = ctx.elem_class_of(source)
            if elem is not None and elem in model.pinned:
                return None
    if (name in recv_ids) or (source is not None and source in recv_ids):
        return None  # registration-on-self
    if assign_target and ctx.cls is not None and re.search(
            rf"\bcancel\w*\s*\(\s*[^()]*\b{re.escape(assign_target)}\b",
            model.cls_text.get(ctx.cls, "")):
        return None
    if sink_name in BIND_SINKS and elem is not None and re.search(
            r"\bunbind\w*\s*\(", model.cls_text.get(elem, "")):
        return None
    fix = None
    if raw_fix is not None and source is not None:
        fix = raw_fix(cap_text, var, source)
    elif source is not None:
        sr = ctx.resolve(source)
        if sr and sr[0] == "shared" and not re.search(
                rf"std::move\s*\(\s*{re.escape(source)}\s*\)", ctx.body):
            fix = dict(old=cap_text, var=var, weak=f"{var}_weak",
                       new=f"{var}_weak = std::weak_ptr({source})")
    return (f"raw pointer capture '{name}' ({elem or '?'}*) escapes "
            f"into deferred sink '{sink_name}' and can dangle before "
            f"the callable runs — capture a std::weak_ptr and lock() "
            f"with an early return (the PR 7 kPing shape), or pin the "
            f"pointee's class with GMMCS_PINNED", fix)


_SINK_CALL_TMPL = (r"(?P<recv>(?:[\w\)\]]+\s*(?:\.|->)\s*)*)"
                   r"\b(?P<fn>%s)\s*\(")
_NAMED_LAMBDA_RE = re.compile(r"\b(?:const\s+)?(?:auto|\w*Fn|Callback)\s+"
                              r"(\w+)\s*=\s*\[")

# A call that drains the event loop in the registering function itself —
# `loop.run()`, `run_for(...)`, `run_until(...)`.
_DRAIN_RE = re.compile(r"[\w\)\]]\s*(?:\.|->)\s*run(?:_for|_until)?\s*\(")


def pass_lifetime(sources, extra_sinks=(), extra_pinned=()):
    """Deferred-capture lifetime analysis (see the section comment)."""
    del LIFETIME_FIXES[:]
    findings = []
    funcs = []
    for src in sources:
        for cls, name, params, annos, body, off in \
                _extract_functions_ctx(src.text):
            if cls is None and "::" in name:
                cls = name.rsplit("::", 1)[0].rsplit("::", 1)[-1]
            funcs.append((src, cls, name,
                          _signature_text(src.text, off), body, off))
    model = _build_lifetime_model(sources, funcs, extra_sinks)
    model.pinned, pin_findings = _collect_pinned(sources)
    model.pinned |= set(extra_pinned)
    findings.extend(pin_findings)

    sink_alt = "|".join(sorted(model.sink_names | model.sink_ctors))
    if not sink_alt:
        return sorted(set(findings))
    sink_re = re.compile(_SINK_CALL_TMPL % sink_alt)
    mk_re = re.compile(r"make_(?:unique|shared)\s*<\s*([\w:\s]+?)\s*[,>]"
                       r"\s*\(")

    for src, cls, name, sig, body, off in funcs:
        ctx = _LifetimeCtx(src, cls, sig, body, off, model)
        # Drains-after carve-out: a function that registers callables and
        # then runs the event loop to completion (`loop.run()` /
        # `run_for` / `run_until`) before returning has structurally
        # proven the deferred work executes before its locals die —
        # the bench/experiment driver shape.
        drains = [d.start() for d in _DRAIN_RE.finditer(body)]
        named = {}
        for nm in _NAMED_LAMBDA_RE.finditer(body):
            named[nm.group(1)] = nm.end() - 1  # offset of '['
        sites = []
        for m in sink_re.finditer(body):
            sites.append((m.start(), m.end() - 1, m.group("recv") or "",
                          m.group("fn")))
        for m in mk_re.finditer(body):
            tcls = m.group(1).strip().rsplit("::", 1)[-1]
            if tcls in model.sink_ctors:
                sites.append((m.start(), m.end() - 1, "", tcls))
        for start, open_idx, recv, fn in sites:
            if any(d > start for d in drains):
                continue
            close = _matching_paren(body, open_idx)
            args = body[open_idx + 1:close]
            recv_ids = set(re.findall(r"\w+", recv))
            stmt_start = max(body.rfind(";", 0, start),
                             body.rfind("{", 0, start),
                             body.rfind("}", 0, start)) + 1
            am = re.search(r"(\w+)\s*=[^=]", body[stmt_start:start])
            assign_target = am.group(1) if am else None
            arg_base = open_idx + 1
            pos_in_args = 0
            for arg in _split_args(args):
                a = arg.strip()
                arg_off = arg_base + pos_in_args + (len(arg) - len(arg.lstrip()))
                pos_in_args += len(arg) + 1
                cap_text, cap_off = None, None
                if a.startswith("["):
                    lb = arg.find("[")
                    cap_text = arg[lb + 1:_matching_bracket(arg, lb) - 1]
                    cap_off = arg_off
                elif re.fullmatch(r"(?:std::move\s*\(\s*)?\w+\s*\)?", a):
                    nm = re.search(r"(\w+)\s*\)?\s*$", a).group(1)
                    if nm in named:
                        lb = named[nm]
                        cap_text = body[lb + 1:_matching_bracket(body, lb) - 1]
                        cap_off = arg_off
                if cap_text is None:
                    continue
                for cap in _split_args(cap_text):
                    verdict = _classify_capture(cap, ctx, recv_ids, fn,
                                                assign_target, recv)
                    if verdict is None:
                        continue
                    msg, fix = verdict
                    lineno = src.line_of(off + cap_off)
                    if src.suppressed(lineno, "lifetime"):
                        continue
                    findings.append((src.rel, lineno, "lifetime",
                                     f"{msg} (in {name})"))
                    if fix is not None:
                        fix.update(rel=src.rel, lineno=lineno)
                        LIFETIME_FIXES.append(fix)
    return sorted(set(findings))


# --------------------------------------------------------------------------
# Pass 6: copy discipline.
# --------------------------------------------------------------------------
#
# The zero-copy payload plane (DESIGN.md §15): a routed event's bytes
# are allocated once, at the publishing client's encode, and every later
# stage — broker ingress, tree-wide fan-out, subscriber decode, RTP
# parse, archive append/replay — holds a gmmcs::Payload handle into that
# one buffer. This pass is the static gate that keeps it true.
#
# Dataflow model. Payload-typed values are `Bytes` and `Payload` —
# parameters, locals, and the plane's well-known members (`.payload`,
# `.wire()`). Each value has an origin:
#   - fresh: the result of a call (encode()/serialize()/take()/slice())
#     or a literal — binding it is a move, never a copy;
#   - shared: an lvalue (a parameter, a local, a member) whose bytes
#     another holder may still need — duplicating it deep-copies.
# The pass walks every function, resolves identifiers against the
# enclosing signature and body, and flags the four ways shared bytes get
# silently duplicated:
#
#   1. by-value sink params: a `Bytes` parameter taken by value whose
#      body neither std::move()s it onward nor mutates it deep-copies at
#      every call site — take `const Bytes&` (inspect-only) or keep
#      by-value and move it into the sink. (`Payload` by value is a
#      refcounted handle and always fine.)
#   2. copy-construction from a shared origin: `Bytes b = other;` (or
#      the paren/iterator-range forms) without std::move and without
#      mutating `b` afterwards duplicates bytes a Payload handle — or
#      the lvalue itself — would have served. Mutation-before-store is
#      the structural justification: a buffer that is stamped or
#      extended genuinely needed its own allocation. The iterator-range
#      form `Bytes(x.begin() + k, x.end())` is the shape the stream
#      delivery path carried before Payload::slice() replaced it.
#   3. allocating inspect-only reads: a ByteReader raw()/str()/lstr()
#      result that is only compared or read wants the non-allocating
#      view()/str_view()/lstr_view() sibling.
#   4. re-framing: writing an already-framed wire image back through
#      `ByteWriter::raw(x.wire())` / `raw(encode(...))` /
#      `raw(x.serialize())` re-buffers bytes the plane already owns —
#      adopt the arriving frame or slice it instead.
#
# `--fix` rewrites the mechanical shapes: an unmoved by-value `Bytes`
# parameter becomes `const Bytes&` (its out-of-line declaration, if any,
# must follow), and inspect-only reads become their view siblings
# (`auto v = r.view(n)` for raw — span supports every read-only use the
# rule admits). Re-framing and shared-origin copies are structural and
# stay manual. A justified deep copy is spelled Payload::copy_of(...)
# (counted at runtime by payload_copy_count()) or carries
# `gmmcs-lint: allow(copy): reason`; the shipped tree carries neither —
# it lints clean with zero suppressions.

# Fix records produced by the last pass_copy run, consumed by
# apply_fixes: dicts with rel/lineno/old/new.
COPY_FIXES = []

_COPY_MUTATORS = ("push_back", "pop_back", "insert", "emplace_back",
                  "resize", "clear", "assign", "erase", "append",
                  "reserve", "swap")

# Read-only member accesses that a span serves just as well: the
# inspect-only-local analysis treats these (and comparisons) as
# non-escaping uses.
_COPY_READONLY = ("size", "empty", "data", "begin", "end", "front", "back")

_COPY_BYVALUE_PARAM_RE = re.compile(
    r"^(?:gmmcs::)?Bytes\s+(\w+)\s*(?:=[^,]*)?$")
_COPY_PARAM_NAME_RE = re.compile(
    r"^(?:const\s+)?(?:gmmcs::)?(?:Bytes|Payload)\s*&{0,2}\s*(\w+)\s*(?:=[^,]*)?$")
_COPY_LOCAL_DECL_RE = re.compile(
    r"\b(?:const\s+)?(?:gmmcs::)?(?:Bytes|Payload)\s+(\w+)\s*[;={(]")
_COPY_INIT_RE = re.compile(
    r"\b(?:const\s+)?(?:gmmcs::)?Bytes\s+(\w+)\s*(?:=\s*([^;{}]+?)"
    r"|\(\s*([^;{}]+?)\s*\)|\{\s*([^;{}]+?)\s*\})\s*;")
_COPY_RANGE_CTOR_RE = re.compile(
    r"(?:gmmcs::)?Bytes\s*\(\s*([\w.\->]+?)\s*\.\s*begin\s*\(\s*\)\s*"
    r"(?:[+\-]\s*[\w()]+\s*)?,\s*\1\s*\.\s*end\s*\(\s*\)\s*\)")
_COPY_MEMBER_LVALUE_RE = re.compile(
    r"^[\w.\[\]]+(?:\.|->)(?:payload|wire\(\))$")
_COPY_READER_DECL_RE = re.compile(r"\bByteReader\s+(\w+)\s*[({]")
_COPY_ALLOC_READ_RE = re.compile(r"\b(\w+)\s*\.\s*(raw|str|lstr)\s*\(")
_COPY_INSPECT_LOCAL_RE = re.compile(
    r"\b(?:(?:const\s+)?(?:gmmcs::)?Bytes|(?:const\s+)?std::string|"
    r"(?:const\s+)?auto)\s+(\w+)\s*=\s*(\w+)\s*\.\s*(raw|str|lstr)\s*\(")
_COPY_REFRAME_RE = re.compile(
    r"\.\s*raw\s*\(\s*[\w.\->]*?(?:wire\s*\(\s*\)|serialize\s*\(\s*\)|"
    r"encode\s*\([^()]*\))\s*\)")

_COPY_VIEW_SIBLING = {"raw": "view", "str": "str_view", "lstr": "lstr_view"}


def _copy_mutated(body, name, start=0):
    """Does `body` (after `start`) mutate payload-typed local `name`?
    Reassignment, a mutator method, element writes, and in-place
    stamping (embed_origin) all count — each proves the value needed a
    private buffer."""
    esc = re.escape(name)
    if re.search(r"\b%s\s*(?:\.|->)\s*(?:%s)\s*\(" %
                 (esc, "|".join(_COPY_MUTATORS)), body[start:]):
        return True
    if re.search(r"\b%s\s*\[[^\]]*\]\s*=[^=]" % esc, body[start:]):
        return True
    if re.search(r"\b%s\s*=[^=]" % esc, body[start:]):
        return True
    if re.search(r"\bembed_origin\s*\(\s*%s\b" % esc, body[start:]):
        return True
    return False


def _copy_payload_names(params, body):
    """Identifiers of payload type in scope: parameters (any ref-ness —
    a const Bytes& parameter is still a shared lvalue) plus locals."""
    names = set()
    for p in _split_args(params):
        m = _COPY_PARAM_NAME_RE.match(p.strip())
        if m:
            names.add(m.group(1))
    for m in _COPY_LOCAL_DECL_RE.finditer(body):
        names.add(m.group(1))
    return names


def _copy_inspect_only(body, name, start):
    """True if every use of `name` after `start` is a comparison or a
    read-only member access — i.e. a non-owning view would have served.
    Any other use (call argument, return, move, store, mutation) makes
    the owned copy potentially load-bearing and the analysis stays
    quiet."""
    esc = re.escape(name)
    for m in re.finditer(r"\b%s\b" % esc, body[start:]):
        at = start + m.start()
        after = body[at + len(name):]
        before = body[:at]
        ro = "|".join(_COPY_READONLY)
        if re.match(r"\s*(?:==|!=)", after):
            continue
        if re.search(r"(?:==|!=)\s*$", before):
            continue
        if re.match(r"\s*(?:\.|->)\s*(?:%s)\s*\(" % ro, after):
            continue
        if re.match(r"\s*\[[^\]]*\]\s*(?!=[^=])", after):
            continue
        return False
    return True


def pass_copy(sources):
    """Copy-discipline dataflow over payload-typed values (see the
    section comment)."""
    del COPY_FIXES[:]
    findings = []

    def report(src, off_in_text, msg, fix=None):
        lineno = src.line_of(off_in_text)
        if src.suppressed(lineno, "copy"):
            return
        findings.append((src.rel, lineno, "copy", msg))
        if fix is not None:
            fix.update(rel=src.rel, lineno=lineno)
            COPY_FIXES.append(fix)

    for src in sources:
        for cls, name, params, _annos, body, off in \
                _extract_functions_ctx(src.text):
            # Rule 1: by-value Bytes parameters that are never adopted.
            for p in _split_args(params):
                pm = _COPY_BYVALUE_PARAM_RE.match(p.strip())
                if not pm:
                    continue
                pname = pm.group(1)
                if re.search(r"std::move\s*\(\s*%s\s*\)" % re.escape(pname),
                             body):
                    continue
                if _copy_mutated(body, pname):
                    continue
                # Locate the parameter in the signature (the text just
                # before the body) for the line number and the fix.
                sig_at = src.text.rfind("Bytes", max(0, off - 400), off)
                decl = "Bytes " + pname
                decl_at = src.text.rfind(decl, max(0, off - 400), off)
                report(src, decl_at if decl_at >= 0 else
                       (sig_at if sig_at >= 0 else off),
                       f"by-value Bytes parameter '{pname}' of {name} is "
                       f"deep-copied at every call and never moved into a "
                       f"sink — take const Bytes& (inspect-only) or "
                       f"std::move it onward",
                       fix={"old": decl, "new": "const Bytes& " + pname}
                       if decl_at >= 0 else None)

            payload_names = _copy_payload_names(params, body)

            # Rule 2: copy-construction from a shared origin.
            for m in _COPY_INIT_RE.finditer(body):
                dst = m.group(1)
                init = next((g for g in m.groups()[1:] if g), "").strip()
                if not init or "std::move" in init or "copy_of" in init:
                    continue
                shared = (re.fullmatch(r"\w+", init) and init in
                          payload_names) or \
                    _COPY_MEMBER_LVALUE_RE.match(init)
                if not shared:
                    continue
                if _copy_mutated(body, dst, m.end()):
                    continue
                report(src, off + m.start(),
                       f"'{dst}' copy-constructs payload bytes from "
                       f"lvalue '{init}' and never mutates them — bind a "
                       f"reference, share a Payload handle, or spell the "
                       f"copy Payload::copy_of")

            # Rule 2b: iterator-range byte copies of a payload value
            # (the pre-Payload stream delivery shape).
            for m in _COPY_RANGE_CTOR_RE.finditer(body):
                base = m.group(1).split(".")[0].split("->")[0]
                if base in payload_names or ".payload" in m.group(1) or \
                        "payload" == m.group(1).rsplit(".", 1)[-1]:
                    report(src, off + m.start(),
                           f"byte-range copy of payload '{m.group(1)}' — "
                           f"Payload::slice() shares the buffer instead "
                           f"of duplicating it")

            # Rule 3: allocating inspect-only reads.
            readers = set(_COPY_READER_DECL_RE.findall(body)) | \
                set(_COPY_READER_DECL_RE.findall(params))
            handled = set()
            for m in _COPY_INSPECT_LOCAL_RE.finditer(body):
                local, recv, op = m.group(1), m.group(2), m.group(3)
                if recv not in readers:
                    continue
                handled.add(m.start())
                if not _copy_inspect_only(body, local, m.end()):
                    continue
                old = src.text[off + m.start():off + m.end()]
                new = re.sub(r"^\s*(?:const\s+)?(?:gmmcs::)?"
                             r"(?:Bytes|std::string|auto)",
                             "auto", old.strip())
                new = re.sub(r"\.\s*%s\s*\($" % op,
                             ".%s(" % _COPY_VIEW_SIBLING[op], new)
                report(src, off + m.start(),
                       f"'{local}' allocates an owned copy via {op}() but "
                       f"is only inspected — {_COPY_VIEW_SIBLING[op]}() "
                       f"reads it in place",
                       fix={"old": old, "new": new})
            for m in _COPY_ALLOC_READ_RE.finditer(body):
                recv, op = m.group(1), m.group(2)
                if recv not in readers:
                    continue
                close = _matching_paren(body, m.end() - 1)
                after = body[close + 1:]
                before = body[:m.start()]
                direct_cmp = re.match(r"\s*(?:==|!=)", after) or \
                    re.search(r"(?:==|!=)\s*$", before)
                if not direct_cmp:
                    continue
                old = body[m.start():m.end()]
                fix = None
                if op in ("str", "lstr"):  # string_view compares cleanly
                    fix = {"old": old,
                           "new": old.replace(op + "(",
                                              _COPY_VIEW_SIBLING[op] + "(")
                           .replace(op + " (",
                                    _COPY_VIEW_SIBLING[op] + " (")}
                report(src, off + m.start(),
                       f"{op}() allocates an owned copy only to compare "
                       f"it — {_COPY_VIEW_SIBLING[op]}() inspects the "
                       f"buffer in place", fix=fix)

            # Rule 4: re-framing an already-framed wire image.
            for m in _COPY_REFRAME_RE.finditer(body):
                report(src, off + m.start(),
                       "re-buffers an already-framed payload through "
                       "ByteWriter::raw — adopt the frame (RoutedEvent's "
                       "wire ctor) or slice the arriving buffer instead "
                       "of re-copying bytes the plane already owns")

    return sorted(set(findings))


# --------------------------------------------------------------------------
# Pass 7: wire — untrusted-input taint analysis (DESIGN.md §16).
# --------------------------------------------------------------------------
#
# Every broker and gateway decoder is fed bytes it did not produce, so a
# length or count lifted off the wire is attacker-chosen until proven
# otherwise. This pass marks integers produced by raw ByteReader reads
# (u8/u16/u32/u64) as *wire-tainted* and rejects them flowing unchecked
# into allocation sizes (resize/reserve/Bytes(n)/ByteWriter(n)/new[]),
# container indexing, loop bounds, and Payload::slice offsets.
#
# The taint lattice has three points:
#   - tainted: a raw wire integer — may claim anything up to 2^64.
#   - frame-bounded: cursor-derived quantities (position(), remaining(),
#     rest().size(), view/str_view/lstr_view lengths). These cannot
#     exceed the frame that arrived, so allocating or looping from them
#     is O(frame) by construction; the pass does not taint them.
#   - sanitized: tainted, then dominated by a guard. A guard is an if/
#     loop condition comparing the value against reader.remaining(), a
#     protocol-max kConstant, or an explicit integer literal; a std::min
#     clamp; or birth from the checked bounded reads (read_len_bounded /
#     read_count_u8/u16/u32), whose results are safe at the source.
#
# Dominance is textual, like the result pass's .value() check: a guard
# sanitizes every later use in the same function body. Taint crosses
# helpers both ways within a file (decoder helpers are file-local in
# this tree): a helper returning a raw read taints its callers'
# assignments, and passing a tainted value to a helper whose parameter
# reaches a sink unguarded is flagged at the call site.
#
# Wrap rule: guard arithmetic must not overflow before it compares —
# `if (n * 4 > r.remaining())` on a narrow n wraps and waves the attack
# through; the multiplication needs a std::size_t widening (or a size_t
# kConstant operand).
#
# The text half bans throwing/unbounded numeric conversions (std::sto*,
# atoi, strtol...) in protocol modules: hostile header text goes through
# the non-throwing bounded gmmcs::parse_* helpers (common/strings.hpp).

# The checked-read plane itself: its internals are the primitive layer.
WIRE_PRIMITIVE_FILES = {"src/common/bytes.cpp", "src/common/bytes.hpp"}
# Modules whose inputs are local trusted artifacts (chaos spec files,
# bench configs), not peer bytes; common/ holds the parse helpers.
WIRE_TRUSTED_MODULES = {"sim", "common"}

WIRE_READ_RE = re.compile(r"\.\s*(?:u8|u16|u32|u64)\s*\(")
WIRE_BOUNDED_RE = re.compile(
    r"read_len_bounded|read_count_u8|read_count_u16|read_count_u32"
    r"|std\s*::\s*min\b")
WIRE_STO_RE = re.compile(
    r"\b(?:std\s*::\s*)?(stoi|stol|stoll|stoul|stoull|stof|stod|stold|"
    r"atoi|atol|atoll|strtol|strtoll|strtoul|strtoull|strtof|strtod)\s*\(")
# Tokens that make a comparison a real upper bound: the reader's own
# cursor, a protocol-max constant, or an explicit literal (0 alone never
# bounds above — `n > 0` admits everything).
WIRE_BOUND_TOKEN_RE = re.compile(
    r"\bremaining\s*\(|\bk[A-Z]\w*|\b(?!0\b)\d+\b|\b\w*[Mm]ax\w*\b|\bsizeof\b")
# Widening that keeps guard arithmetic from wrapping: an explicit size_t/
# u64 operand, or a kConstant (declared std::size_t by convention here).
WIRE_WIDEN_RE = re.compile(
    r"std\s*::\s*size_t\s*[{(]|static_cast\s*<\s*std\s*::\s*(?:size_t|uint64_t)\s*>"
    r"|\bk[A-Z]\w*|\bsizeof\b")
WIRE_ASSIGN_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*([+\-*/%|&^]?=)(?![=>])\s*([^;{}]*);")
WIRE_ALLOC_RE = re.compile(
    r"\.\s*(?:resize|reserve)\s*\(|\b(?:Bytes|ByteWriter)\s+[A-Za-z_]\w*\s*\("
    r"|\b(?:Bytes|ByteWriter)\s*\(|\bnew\s+[\w:]+\s*\[")
WIRE_SLICE_RE = re.compile(r"\.\s*slice\s*\(")
WIRE_INDEX_RE = re.compile(r"[\w\)\]]\s*(\[)")
WIRE_LOOP_RE = re.compile(r"\b(for|while)\s*\(")
WIRE_IF_RE = re.compile(r"\bif\s*\(")
WIRE_RETURN_RE = re.compile(r"\breturn\s+([^;]*);")


def _wire_matching_bracket(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _wire_word(name):
    return re.compile(rf"\b{re.escape(name)}\b")


def _wire_split_args(argtext):
    """Splits an argument list on top-level commas."""
    parts, depth, cur = [], 0, []
    for ch in argtext:
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or parts:
        parts.append("".join(cur))
    return parts


def _wire_param_names(params):
    """Parameter names of a function, excluding the IO objects themselves."""
    names = []
    for part in _wire_split_args(params):
        if re.search(r"\bByte(Reader|Writer)\b", part):
            continue
        toks = re.findall(r"[A-Za-z_]\w*", re.sub(r"=\s*[^,]*$", "", part))
        if len(toks) >= 2:
            names.append(toks[-1])
    return names


def _wire_active(tainted, sanitized, name, pos):
    """Is `name` tainted and not yet sanitized at body position `pos`?"""
    return (name in tainted and tainted[name] <= pos
            and sanitized.get(name, 10**18) > pos)


def _wire_scan(body, seed, reader_names, tainted_helpers):
    """One function-body dataflow walk.

    Returns (tainted, sanitized, sinks): positions where each variable
    became tainted / dominated by a guard, and raw sink hits as
    (pos, kind, name, wrap) tuples. `seed` pre-taints names (used for
    parameter-to-sink summaries and actual reader-derived locals alike).
    """
    tainted = dict(seed)
    sanitized = {}
    read_alt = "|".join(sorted(reader_names)) if reader_names else r"(?!x)x"
    direct_read = re.compile(rf"\b(?:{read_alt})\s*\.\s*(?:u8|u16|u32|u64)\s*\(")
    helper_alt = ("|".join(sorted(tainted_helpers))
                  if tainted_helpers else r"(?!x)x")
    helper_call = re.compile(rf"\b(?:{helper_alt})\s*\(")

    def rhs_tainted(rhs, pos):
        if WIRE_BOUNDED_RE.search(rhs):
            return False  # born sanitized: clamped at the source
        if direct_read.search(rhs) or helper_call.search(rhs):
            return True
        return any(_wire_active(tainted, sanitized, t, pos)
                   and _wire_word(t).search(rhs) for t in list(tainted))

    # Taint propagation through assignments: two rounds reach the
    # chains the single forward walk misses (a = read; b = a; c = b).
    for _ in range(2):
        for m in WIRE_ASSIGN_RE.finditer(body):
            name, rhs = m.group(1), m.group(3)
            at = m.start(1)
            prev = body[:at].rstrip()
            if prev.endswith(".") or prev.endswith("->"):
                continue  # member assignment: members are not tracked
            if name in tainted and tainted[name] <= at:
                continue
            if rhs_tainted(rhs, at):
                tainted[name] = at

    # Guards: an if/loop condition bounding a tainted name sanitizes it
    # from that point on (textual dominance).
    wraps = []
    for m in list(WIRE_IF_RE.finditer(body)) + list(WIRE_LOOP_RE.finditer(body)):
        open_idx = body.index("(", m.start())
        close = _matching_paren(body, open_idx)
        if close < 0:
            continue
        cond = body[open_idx + 1:close]
        if not WIRE_BOUND_TOKEN_RE.search(cond):
            continue
        for t in list(tainted):
            if tainted[t] > close or not _wire_word(t).search(cond):
                continue
            if sanitized.get(t, 10**18) > close:
                sanitized[t] = close
            # Wrap rule: arithmetic on the tainted value inside the guard
            # must carry a widening operand or it can overflow first.
            arith = re.search(
                rf"(?:\b{re.escape(t)}\b\s*[*+]|[*+]\s*\b{re.escape(t)}\b)",
                cond)
            if arith and not WIRE_WIDEN_RE.search(cond):
                wraps.append((m.start(), "wrap", t, False))

    sinks = list(wraps)

    def check_expr(pos, kind, expr):
        for t in list(tainted):
            if _wire_active(tainted, sanitized, t, pos) and \
                    _wire_word(t).search(expr):
                sinks.append((pos, kind, t, False))
                return

    for m in WIRE_ALLOC_RE.finditer(body):
        open_idx = body.find("(", m.start())
        if open_idx < 0 or "[" in m.group(0):
            if "[" in m.group(0):  # new T[expr]
                bopen = body.index("[", m.start())
                bclose = _wire_matching_bracket(body, bopen)
                if bclose > 0:
                    check_expr(m.start(), "allocation",
                               body[bopen + 1:bclose])
            continue
        close = _matching_paren(body, open_idx)
        if close > 0:
            check_expr(m.start(), "allocation", body[open_idx + 1:close])

    for m in WIRE_SLICE_RE.finditer(body):
        open_idx = body.index("(", m.start())
        close = _matching_paren(body, open_idx)
        if close > 0:
            check_expr(m.start(), "slice", body[open_idx + 1:close])

    for m in WIRE_INDEX_RE.finditer(body):
        bopen = m.start(1)
        if re.search(r"\bnew\s+[\w:]+\s*$", body[:bopen]):
            continue  # new T[n] is the allocation sink, not an index
        bclose = _wire_matching_bracket(body, bopen)
        if bclose > 0:
            check_expr(m.start(), "index", body[bopen + 1:bclose])

    for m in WIRE_LOOP_RE.finditer(body):
        open_idx = body.index("(", m.start())
        close = _matching_paren(body, open_idx)
        if close < 0:
            continue
        cond = body[open_idx + 1:close]
        if m.group(1) == "for":
            clauses = cond.split(";")
            cond = clauses[1] if len(clauses) >= 2 else cond
        if WIRE_BOUND_TOKEN_RE.search(cond):
            continue  # self-guarded: the condition itself carries a bound
        check_expr(m.start(), "loop bound", cond)

    return tainted, sanitized, sinks


WIRE_SINK_MSG = {
    "allocation": "drives an allocation size",
    "slice": "reaches Payload::slice",
    "index": "indexes a container",
    "loop bound": "bounds this loop",
}


def pass_wire(sources):
    findings = []
    for src in sources:
        parts = src.rel.split("/")
        if len(parts) < 3 or parts[0] != "src":
            continue
        module = parts[1]
        if module in WIRE_TRUSTED_MODULES or src.rel in WIRE_PRIMITIVE_FILES:
            continue

        # Text half: throwing/unbounded numeric parses on protocol text.
        for idx, line in enumerate(src.code):
            sm = WIRE_STO_RE.search(line)
            if sm and not src.suppressed(idx + 1, "wire"):
                findings.append(
                    (src.rel, idx + 1, "wire",
                     f"throwing/unbounded numeric parse '{sm.group(1)}' on "
                     f"wire-derived text — use the non-throwing bounded "
                     f"gmmcs::parse_u32/parse_u64/parse_f64 "
                     f"(common/strings.hpp)"))

        funcs = _extract_functions(src.text)
        readers = {}
        for name, params, body, off in funcs:
            rd = _io_vars(params, body, "ByteReader")
            if rd:
                readers[name] = rd

        # Helpers whose return value is a raw wire read (one file at a
        # time; two rounds catch helper-calls-helper chains).
        tainted_helpers = set()
        for _ in range(2):
            for name, params, body, off in funcs:
                if name not in readers or name in tainted_helpers:
                    continue
                tainted, sanitized, _ = _wire_scan(
                    body, {}, readers[name], tainted_helpers)
                bare = name.rsplit("::", 1)[-1]
                for rm in WIRE_RETURN_RE.finditer(body):
                    expr = rm.group(1)
                    read_alt = "|".join(sorted(readers[name]))
                    if re.search(rf"\b(?:{read_alt})\s*\.\s*(?:u8|u16|u32|u64)\s*\(",
                                 expr) and not WIRE_BOUNDED_RE.search(expr):
                        tainted_helpers.add(bare)
                        break
                    if any(_wire_active(tainted, sanitized, t, rm.start())
                           and _wire_word(t).search(expr) for t in tainted):
                        tainted_helpers.add(bare)
                        break

        # Parameter-to-sink summaries: which params reach a sink unguarded.
        sink_params = {}
        for name, params, body, off in funcs:
            pnames = _wire_param_names(params)
            if not pnames:
                continue
            for p in pnames:
                _, _, sinks = _wire_scan(body, {p: 0},
                                         readers.get(name, set()),
                                         tainted_helpers)
                if any(kind != "wrap" for _, kind, t, _ in sinks if t == p):
                    sink_params.setdefault(name.rsplit("::", 1)[-1],
                                           set()).add(p)

        # The report walk: only functions that actually see a reader.
        for name, params, body, off in funcs:
            if name not in readers:
                continue
            tainted, sanitized, sinks = _wire_scan(
                body, {}, readers[name], tainted_helpers)
            for pos, kind, t, _ in sinks:
                lineno = src.line_of(off + 1 + pos)
                if src.suppressed(lineno, "wire"):
                    continue
                if kind == "wrap":
                    findings.append(
                        (src.rel, lineno, "wire",
                         f"guard arithmetic on wire-tainted '{t}' can wrap "
                         f"before the comparison — widen with "
                         f"std::size_t{{...}}"))
                else:
                    findings.append(
                        (src.rel, lineno, "wire",
                         f"wire-tainted '{t}' {WIRE_SINK_MSG[kind]} without "
                         f"a dominating remaining()/protocol-max guard"))
            # Call sites handing tainted values to sinking helper params.
            for fname, pset in sink_params.items():
                if fname == name.rsplit("::", 1)[-1]:
                    continue
                for cm in re.finditer(rf"\b{re.escape(fname)}\s*\(", body):
                    copen = body.index("(", cm.start())
                    close = _matching_paren(body, copen)
                    if close < 0:
                        continue
                    args = _wire_split_args(body[copen + 1:close])
                    # Re-resolve the param order for position matching.
                    callee = next((f for f in funcs
                                   if f[0].rsplit("::", 1)[-1] == fname), None)
                    if callee is None:
                        continue
                    cparams = _wire_param_names(callee[1])
                    all_params = _wire_split_args(callee[1])
                    for i, argexpr in enumerate(args):
                        if i >= len(all_params):
                            break
                        ptoks = re.findall(r"[A-Za-z_]\w*", all_params[i])
                        pname = ptoks[-1] if len(ptoks) >= 2 else None
                        if pname not in pset or pname not in cparams:
                            continue
                        for t in list(tainted):
                            if _wire_active(tainted, sanitized, t, cm.start()) \
                                    and _wire_word(t).search(argexpr):
                                lineno = src.line_of(off + 1 + cm.start())
                                if not src.suppressed(lineno, "wire"):
                                    findings.append(
                                        (src.rel, lineno, "wire",
                                         f"wire-tainted '{t}' passed to "
                                         f"'{fname}({pname})', which uses it "
                                         f"as an unguarded size/bound"))
                                break
    return findings


PASSES = {
    "layering": lambda srcs: pass_layering(srcs),
    "result": lambda srcs: pass_result(srcs),
    "codec": lambda srcs: pass_codec_symmetry(srcs),
    "determinism": lambda srcs: pass_determinism(srcs),
    "lifetime": lambda srcs: pass_lifetime(srcs),
    "copy": lambda srcs: pass_copy(srcs),
    "wire": lambda srcs: pass_wire(srcs),
}

_LAMBDA_AFTER_CAPS_RE = re.compile(
    r"\]\s*(?:\((?:[^()]|\([^()]*\))*\)\s*)?"
    r"(?:mutable|noexcept|constexpr|->\s*[\w:<>]+|\s)*\{")


def _apply_lifetime_fix(text, rec):
    """Rewrites one raw capture to the weak_ptr + lock + early-return
    shape in `text`. Returns the new text, or None if the capture no
    longer matches (already fixed / moved)."""
    lines = text.splitlines(keepends=True)
    zone_start = sum(len(l) for l in lines[:rec["lineno"] - 1])
    zone = text[zone_start:zone_start + sum(
        len(l) for l in lines[rec["lineno"] - 1:rec["lineno"] + 4])]
    at = zone.find(rec["old"])
    if at < 0:
        return None
    pos = zone_start + at
    text = text[:pos] + rec["new"] + text[pos + len(rec["old"]):]
    m = _LAMBDA_AFTER_CAPS_RE.search(text, pos + len(rec["new"]))
    if not m:
        return None
    brace = m.end()
    prolog = (f" auto {rec['var']} = {rec['weak']}.lock(); "
              f"if (!{rec['var']}) return;")
    return text[:brace] + prolog + text[brace:]


def _apply_copy_fix(text, rec):
    """Applies one copy-pass rewrite: a windowed exact-text replace near
    the recorded line. Returns the new text, or None if the site no
    longer matches (already fixed / moved)."""
    lines = text.splitlines(keepends=True)
    zone_start = sum(len(l) for l in lines[:max(0, rec["lineno"] - 2)])
    zone_end = sum(len(l) for l in lines[:rec["lineno"] + 3])
    at = text.find(rec["old"], zone_start, zone_end)
    if at < 0:
        return None
    return text[:at] + rec["new"] + text[at + len(rec["old"]):]


def apply_fixes(root):
    """Applies the mechanical fixes the last lifetime and copy passes
    recorded: raw captures rewritten into the weak_ptr + lock +
    early-return shape (when the pointer's source is a shared_ptr in
    scope), by-value Bytes params to const Bytes&, and inspect-only
    allocating reads to their view siblings. Returns the number of edits
    made. Idempotent by construction: a fixed site no longer produces the
    finding that drives the edit."""
    edits = 0
    # Copy-discipline rewrites (text edits; bottom-up per file).
    by_file = {}
    for rec in COPY_FIXES:
        by_file.setdefault(rec["rel"], []).append(rec)
    for rel, recs in sorted(by_file.items()):
        path = root / rel
        text = path.read_text()
        for rec in sorted(recs, key=lambda r: -r["lineno"]):
            new_text = _apply_copy_fix(text, rec)
            if new_text is not None:
                text = new_text
                edits += 1
        path.write_text(text)
    # Lifetime rewrites first (text edits; apply bottom-up per file so
    # earlier line numbers stay valid).
    by_file = {}
    for rec in LIFETIME_FIXES:
        by_file.setdefault(rec["rel"], []).append(rec)
    for rel, recs in sorted(by_file.items()):
        path = root / rel
        text = path.read_text()
        for rec in sorted(recs, key=lambda r: -r["lineno"]):
            new_text = _apply_lifetime_fix(text, rec)
            if new_text is not None:
                text = new_text
                edits += 1
        path.write_text(text)
    return edits


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
    ap.add_argument("--fix", action="store_true",
                    help="rewrite raw deferred captures to the weak_ptr "
                         "shape and apply the copy pass's mechanical "
                         "rewrites (const Bytes& params, view() reads), "
                         "then re-lint")
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
    if args.fix:
        fixed = apply_fixes(root)
        if fixed:
            print(f"gmmcs-lint: --fix rewrote {fixed} site(s)")
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
