#!/usr/bin/env python3
"""Builds and runs the end-to-end AIS pipeline benchmark.

Usage (from the repository root):

    python3 aisbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds aisbench/ (a CMake package of its own
that compiles ../src) in Release mode under $CARGO_TARGET_DIR/aisbench
(default .bench_build/aisbench); later calls rebuild incrementally. The
harness output is passed through; its last line is the JSON result. The
exit code is the harness's: 0 when every check passed.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("replay_seq", "replay_sharded4", "netfeed_paced", "archive_live")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"aisbench: {msg}", file=sys.stderr, flush=True)


def source_id():
    """Identity of the code under test: git commit when the checkout is a
    repository, and always a digest of the sources the benchmark builds."""
    digest = hashlib.sha256()
    for top in ("src", "aisbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "tree-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            ident = "git:" + rev.stdout.strip() + "," + ident
    return ident


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        make = ["cmake", "--build", build_dir, "-j", jobs,
                "--target", "aisbench", "aisbench_trace"]
        return subprocess.run(make, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "aisbench")
    try:
        if not build(build_dir):
            log("build failed")
            return 2
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"build failed: {err}")
        return 2

    binary = os.path.join(build_dir,
                          "aisbench_trace" if args.trace else "aisbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_root, "aisbench-work"),
           "--source", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 3
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
