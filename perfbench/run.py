#!/usr/bin/env python3
"""Builds the dfl library and the benchmark from source, then runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig1-merge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest        # the correctness gates' own tests

The build goes to .bench_build/ (configured once, rebuilt incrementally on
every call). The benchmark prints a human-readable report and, as the last
line of stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def call(cmd):
    """Runs a build step, replaying its output to stderr only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for target in targets:
        call(["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target", target])


def source_rev():
    """The git revision when there is one, else a digest of the sources built."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "--short=12",
                              "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["fig1-merge", "fig2-verify", "churn-256"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build(["test_checks"])
        sys.exit(subprocess.run([os.path.join(BUILD, "test_checks")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build(["dflbench"])
    cmd = [os.path.join(BUILD, "dflbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenario", os.path.join(HERE, "mobile-churn.scn"),
           "--rev", source_rev()]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
