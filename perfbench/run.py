#!/usr/bin/env python3
"""End-to-end pipeline benchmark: sites -> `ustream serve` -> union -> queries.

    python3 perfbench/run.py --workload oneshot-f0|live-deltas|freq-topk \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `pipeline_bench` client and the
`ustream` CLI from this checkout's sources (perfbench/CMakeLists.txt pulls
the repository in as a subproject; no repository build file is edited)
into $CARGO_TARGET_DIR (default .bench_build), then runs one measured run.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot-f0", "live-deltas", "freq-topk")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then brings the client and the CLI up to date."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, "build.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "pipeline_bench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                return None
    return (os.path.join(cmake_dir, "pipeline_bench"),
            os.path.join(cmake_dir, "ustream", "src", "cli", "ustream"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The benchmark measures this checkout's program: without its sources
    # there is nothing to build, and no result may be printed.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("perfbench: repository sources not found at %s\n" % ROOT)
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binaries = build(build_dir)
    if binaries is None:
        sys.stderr.write("perfbench: build failed (log in %s)\n" % build_dir)
        return 1
    client, ustream = binaries

    workdir = os.path.join(build_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [client, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ustream", ustream, "--workdir", workdir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout.decode())
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
