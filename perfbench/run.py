#!/usr/bin/env python3
"""CLUSEQ end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the cluseq library from src/ plus the benchmark program)
into .bench_build/perfbench, generates the workload's inputs from the seed,
measures them in a fresh process, and prints that process's JSON lines. The
last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the spans of the run are also written to
.bench_build/perfbench-traces/<workload>-seed<N>.json. Exits non-zero when a
build step, an input or an output check fails. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("protein-tuned", "synthetic-deep", "classify-k256")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_BUILD, "perfbench")
DATA_ROOT = os.path.join(BENCH_BUILD, "perfbench-data")
TRACE_DIR = os.path.join(BENCH_BUILD, "perfbench-traces")

BUILD_TIMEOUT_S = 800
PREPARE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


_active = None  # The child process group currently running, if any.


def _kill_active():
    if _active is not None and _active.poll() is None:
        os.killpg(_active.pid, signal.SIGKILL)
        _active.wait()


def _on_signal(signum, _frame):
    _kill_active()
    sys.exit(128 + signum)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group. On timeout, or when this script is
    interrupted, the whole group is killed and reaped. Returns (returncode,
    stdout)."""
    global _active
    _active = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = _active.communicate(timeout=timeout)
        return _active.returncode, out
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {timeout} s: {cmd[0]}",
              file=sys.stderr)
        return -1, None
    finally:
        _kill_active()
        _active = None


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    # Concurrent invocations in one checkout build one at a time.
    with open(os.path.join(BENCH_BUILD, "perfbench.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            rc, _ = run(cmd, BUILD_TIMEOUT_S, stdout=log,
                        stderr=subprocess.STDOUT)
            if rc != 0:
                break
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main():
    args = parse_args()
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    binary = build()
    if binary is None:
        return 1
    data_dir = os.path.join(
        DATA_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(data_dir, exist_ok=True)
    try:
        common = [f"--workload={args.workload}", f"--seed={args.seed}",
                  f"--dir={data_dir}"]
        rc, _ = run([binary, "prepare"] + common, PREPARE_TIMEOUT_S)
        if rc != 0:
            print("perfbench: input generation failed", file=sys.stderr)
            return 1
        cmd = [binary, "run"] + common + [
            f"--seconds={args.seconds}", f"--trace={args.trace}"]
        if args.trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            cmd.append("--trace-out=" + os.path.join(
                TRACE_DIR, f"{args.workload}-seed{args.seed}.json"))
        rc, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = (out or "").strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise ValueError("unexpected result keys")
    except (IndexError, ValueError) as err:
        print(f"perfbench: no result from the benchmark ({err})",
              file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0 if rc == 0 and result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
