#!/usr/bin/env python3
"""Line-level shares from a gmon.out PC-sample histogram.

Reads the histogram record of a gmon.out written by a binary linked with
`-pg -static` (its code compiled with `-g` but without `-pg`, so no mcount
call inflates small functions), maps every sampled bin to its source line
with `addr2line -f -i`, and prints each layer's share of all samples, the
hottest functions and the hottest lines. A bin's line is its innermost
frame inside the repository (an inlined std:: helper is charged to the
repository line that inlined it), and its function is that frame's
function, so the lines of one function (a heap sift's loop, spread over
half a dozen lines) add up to one row. A bin with no repository frame is
charged by function name to libc malloc/free or libc memcpy, or to
"other", and keeps that function's name. addr2line names an inlined
lambda body only `operator()`, so such a frame is charged to
`operator() [file:line]` of its sample, one row per lambda line instead
of one row for every lambda; outside the repository it takes the nearest
named function in its chain.

Usage: gmon_lines.py <binary> <gmon.out> <repo root> [--top N]
"""
import argparse
import os
import struct
import subprocess
import sys
from collections import Counter

GMON_TAG_TIME_HIST = 0
GMON_TAG_CG_ARC = 1
GMON_TAG_BB_COUNT = 2

MALLOC = ("malloc", "free", "cfree", "_int_malloc", "_int_free", "malloc_consolidate",
          "tcache", "operator new", "operator delete", "realloc", "calloc", "unlink_chunk",
          "sysmalloc", "_int_realloc")
MEMCPY = ("memcpy", "memmove", "memset", "__memcpy", "__memmove", "__memset", "mempcpy")


def read_histogram(path):
    """Returns [(bin start pc, samples)] for every nonzero bin, and the rate."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"gmon":
        sys.exit(f"{path}: not a gmon.out file")
    pos = 20  # cookie, version, 12 spare bytes
    bins = Counter()
    rate = 0
    while pos < len(data):
        tag = data[pos]
        pos += 1
        if tag == GMON_TAG_TIME_HIST:
            low, high, n, rate = struct.unpack_from("<QQII", data, pos)
            pos += 24 + 15 + 1  # dimension name and abbreviation
            counts = struct.unpack_from(f"<{n}H", data, pos)
            pos += 2 * n
            width = (high - low) / n
            for i, c in enumerate(counts):
                if c:
                    bins[low + int(i * width)] += c
        elif tag == GMON_TAG_CG_ARC:
            pos += 8 + 8 + 4
        elif tag == GMON_TAG_BB_COUNT:
            (count,) = struct.unpack_from("<I", data, pos)
            pos += 4 + count * 16
        else:
            sys.exit(f"{path}: unknown record tag {tag}")
    return sorted(bins.items()), rate


def symbolize(binary, pcs):
    """Maps each pc to its inline chain [(function, file, line)], innermost first."""
    out = subprocess.run(["addr2line", "-i", "-f", "-C", "-a", "-e", binary],
                         input="\n".join(hex(pc) for pc in pcs), capture_output=True,
                         text=True, check=True).stdout.splitlines()
    chains = {}
    pc = None
    i = 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            pc = int(line, 16)
            chains[pc] = []
            i += 1
            continue
        func = line
        loc = out[i + 1] if i + 1 < len(out) else "??:0"
        file, _, num = loc.rpartition(":")
        num = num.split(" ")[0]
        chains[pc].append((func, file, num))
        i += 2
    return chains


def layer_of(path, root):
    rel = os.path.relpath(path, root)
    for layer in ("src/sim", "src/broker", "src/transport", "src/common"):
        if rel.startswith(layer + "/"):
            return layer
    if rel.startswith("perfbench/"):
        return "perfbench"
    if rel.startswith("src/"):
        return "src (other)"
    return None


def fold(chain, root):
    """Charges one sample's inline chain: returns (layer, file:line, function)."""
    for func, file, num in chain:
        layer = layer_of(os.path.realpath(file), root) if file.startswith("/") else None
        if layer is not None:
            where = f"{os.path.relpath(os.path.realpath(file), root)}:{num}"
            return layer, where, f"operator() [{where}]" if func == "operator()" else func
    named = [func for func, _, _ in chain if func != "operator()"]
    func = named[0] if named else (chain[0][0] if chain else "??")
    if func.startswith(MALLOC) or "malloc" in func or func.startswith("_int_"):
        layer = "libc malloc/free"
    elif func.startswith(MEMCPY) or "memcpy" in func or "memmove" in func:
        layer = "libc memcpy"
    else:
        layer = "other"
    return layer, func[:70], func


def main():
    p = argparse.ArgumentParser()
    p.add_argument("binary")
    p.add_argument("gmon")
    p.add_argument("root")
    p.add_argument("--top", type=int, default=25)
    args = p.parse_args()
    root = os.path.realpath(args.root)
    bins, rate = read_histogram(args.gmon)
    total = sum(c for _, c in bins)
    if total == 0:
        sys.exit("no samples in the histogram")
    chains = symbolize(args.binary, [pc for pc, _ in bins])
    lines = Counter()
    funcs = Counter()
    layers = Counter()
    for pc, count in bins:
        hit = fold(chains.get(pc, []), root)
        layers[hit[0]] += count
        funcs[hit[2]] += count
        lines[(hit[1], hit[2])] += count
    print(f"{total} samples at {rate} Hz ({total / max(rate, 1):.1f} s of CPU)")
    print("\nshare by layer:")
    for layer, c in layers.most_common():
        print(f"  {100.0 * c / total:6.2f}%  {layer}")
    print(f"\ntop {args.top} functions:")
    for func, c in funcs.most_common(args.top):
        print(f"  {100.0 * c / total:6.2f}%  {func[:110]}")
    print(f"\ntop {args.top} lines:")
    for (where, func), c in lines.most_common(args.top):
        print(f"  {100.0 * c / total:6.2f}%  {where}  [{func[:70]}]")


if __name__ == "__main__":
    main()
