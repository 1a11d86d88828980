#!/usr/bin/env python3
"""Build and run the perfbench two-clock cost benchmark.

Benchmark mode (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload fig3_video --seed 2003 --seconds 10 --trace 0

Other modes:

    python3 perfbench/run.py --report [--record]   # every workload, both runs, as a table
    python3 perfbench/run.py --selftest            # unit tests of the measurement helpers

Run from the repository root or anywhere else: paths are resolved from
this file. The simulator is built from ../src with CMake into
.bench_build/perfbench (build log: .bench_build/perfbench-build.log).
--record appends the report to perfbench/history.jsonl, keyed by commit.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_LOG = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
HISTORY = os.path.join(HERE, "history.jsonl")
PARITY_JSON = os.path.join(ROOT, "BENCH_fig3_delay_jitter.json")
WORKLOADS = ["fig3_video", "batched_video_1200", "fabric_audio_churn"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One run of the benchmark binary must finish well inside the 180 s a
# benchmark run is allowed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configures (once) and incrementally builds `target`; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    with open(BUILD_LOG, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                log.flush()
                with open(BUILD_LOG) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed ({' '.join(cmd)}); log: {BUILD_LOG}")
    return os.path.join(BUILD, target)


def parity_args(workload, seed):
    """Checked-in Figure-3 NaradaBrokering figures the fig3_video run must
    reproduce at the paper's seed (the harness parity check)."""
    if workload != "fig3_video" or seed != 2003 or not os.path.isfile(PARITY_JSON):
        return []
    with open(PARITY_JSON) as f:
        narada = json.load(f)["narada"]
    return ["--parity-delay", str(narada["avg_delay_ms"]),
            "--parity-jitter", str(narada["avg_jitter_ms"])]


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + parity_args(workload, seed)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode} and no result")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"malformed result line: {lines[-1]}")
    return result


def report(args):
    """Runs every workload untraced and traced, prints every metric with its
    unit, and runs the helper self-test; returns non-zero if any check failed."""
    selftest_ok = subprocess.run([build("perfbench_selftest")]).returncode == 0
    binary = build("perfbench")
    rows = {}
    ok = selftest_ok
    for w in WORKLOADS:
        e2e = run_once(binary, w, args.seed, args.seconds, 0)
        layers = run_once(binary, w, args.seed, args.seconds, 1)
        ok = ok and e2e["correct"] and layers["correct"]
        rows[w] = {"correct": e2e["correct"] and layers["correct"],
                   "attempted": e2e["attempted"], "failed": e2e["failed"],
                   "metrics": e2e["metrics"], "layers": layers["metrics"]}
    names = list(rows[WORKLOADS[0]]["metrics"]) + list(rows[WORKLOADS[0]]["layers"])
    print(f"{'metric':38s}" + "".join(f"{w:>22s}" for w in WORKLOADS) + "  unit")
    for n in names:
        cells = []
        unit = ""
        for w in WORKLOADS:
            m = rows[w]["metrics"].get(n) or rows[w]["layers"][n]
            cells.append(f"{m['value']:22.6g}")
            unit = m["unit"]
        print(f"{n:38s}" + "".join(cells) + f"  {unit}")
    verdicts = [f"{w}={'ok' if rows[w]['correct'] else 'FAILED'}" for w in WORKLOADS]
    verdicts.append(f"selftest={'ok' if selftest_ok else 'FAILED'}")
    print("checks: " + ", ".join(verdicts))
    if args.record:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or "unknown"
        entry = {"commit": commit,
                 "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
                 "host": f"{platform.machine()} {os.cpu_count()} cpus",
                 "seed": args.seed, "seconds": args.seconds, "workloads": rows}
        with open(HISTORY, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"recorded {commit[:12]} in {HISTORY}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2003)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--record", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return subprocess.run([build("perfbench_selftest")]).returncode
    if args.report:
        return report(args)
    if not args.workload:
        fail("--workload is required (or --report / --selftest)")
    result = run_once(build("perfbench"), args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
