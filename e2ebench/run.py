#!/usr/bin/env python3
"""Build and run the e2ebench end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload fig2-grid --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test
    python3 e2ebench/run.py --record-golden

The benchmark binary (e2ebench/*.cpp) is built from source against the repository's
src/ tree into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench).
A run prints host facts and notes, then as its last line one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 600


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = base if os.path.isabs(base) else os.path.join(ROOT, base)
    os.makedirs(path, exist_ok=True)
    # A relative path keeps the daemon's unix socket path short.
    rel = os.path.relpath(path, ROOT)
    return rel if not rel.startswith("..") else path


def run_step(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("e2ebench: build step timed out: %s" % " ".join(cmd),
              file=sys.stderr)
        return False
    return done.returncode == 0


def build(work):
    out = os.path.join(work, "e2ebench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "e2ebench", "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_step(cmd, BUILD_TIMEOUT_S):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_step(["cmake", "--build", out, "--target", "e2ebench",
                     "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, "e2ebench")


def run_binary(cmd, timeout):
    """Run the binary; return (exit code, last stdout line, stdout lines)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("e2ebench: run timed out", file=sys.stderr)
        return 1, "", []
    lines = out.splitlines()
    return proc.returncode, (lines[-1] if lines else ""), lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="test the benchmark's helpers and quick-run "
                         "every workload")
    ap.add_argument("--record-golden", action="store_true",
                    help="regenerate e2ebench/golden.txt from this tree")
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.record_golden):
        ap.error("give --workload, --self-test or --record-golden")

    work = build_root()
    binary = build(work)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    golden = os.path.join("e2ebench", "golden.txt")

    if args.record_golden:
        return subprocess.call([binary, "record-golden", "--golden", golden],
                               cwd=ROOT)
    if args.self_test:
        code, _, lines = run_binary(
            [binary, "selftest", "--golden", golden, "--work-dir", work,
             "--benchmark", "BENCHMARK.json"], SELFTEST_TIMEOUT_S)
        print("\n".join(lines))
        return code

    code, last, lines = run_binary(
        [binary, "run", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", repr(args.seconds), "--trace",
         str(args.trace), "--golden", golden, "--work-dir", work],
        RUN_TIMEOUT_S)
    if code != 0:
        print("\n".join(lines), file=sys.stderr)
        return code or 1
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print("e2ebench: the benchmark printed no result line", file=sys.stderr)
        print("\n".join(lines), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
