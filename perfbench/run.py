#!/usr/bin/env python3
"""Builds and runs the StreamETS wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload union_wal_blast --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the engine
from src/) into perfbench/.build in Release mode; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Runtime files (WAL segments, spill blocks, span
dumps) go to perfbench/.work. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
WORK = os.path.join(HERE, ".work")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["union_wal_blast", "union_paced", "join_spill"]
# One run must end within 180 s; the benchmark itself stops near --seconds.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: cmake configure failed")
    step = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("perfbench: build failed")


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        base = os.path.join(ROOT, tree)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run(args, capture=False):
    """Runs the benchmark binary with `args` (plus the work dir and commit)."""
    cmd = [BINARY, "--work-dir", WORK, "--commit", commit_id()] + args
    try:
        return subprocess.run(cmd, capture_output=capture, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    """Tiny runs of every workload: the metric names and units printed match
    BENCHMARK.json, a corrupted sink digest fails the run, and a dropped
    record moves the failure count."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"]
        for trace in ("0", "1"):
            proc = run(base + ["--trace", trace], capture=True)
            result = last_json(proc)
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            check(proc.returncode == 0 and result is not None and result["correct"]
                  and result["failed"] == 0,
                  "%s trace=%s runs clean" % (workload, trace))
            check(got == want[trace],
                  "%s trace=%s prints every metric with its unit" % (workload, trace))
        proc = run(base + ["--trace", "0", "--inject", "corrupt-digest"], capture=True)
        result = last_json(proc)
        check(proc.returncode != 0 and result is not None and not result["correct"],
              "%s: a corrupted sink digest is reported as a failure" % workload)
        proc = run(base + ["--trace", "0", "--inject", "drop-record"], capture=True)
        result = last_json(proc)
        check(result is not None and result["failed"] > 0
              and result["metrics"]["delivered_ratio"]["value"] < 1.0,
              "%s: a dropped record moves the failure count" % workload)
    print("self-test %s" % ("passed" if not problems else
                            "FAILED: %d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark itself at tiny sizes")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()
    if args.self_test:
        return self_test()
    proc = run(["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", args.trace])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
