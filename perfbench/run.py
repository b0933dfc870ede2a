#!/usr/bin/env python3
"""Build and run the federated-tree benchmark.

    python3 perfbench/run.py --workload env-ship --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the repository's libraries from src/ plus the lfmbench binary)
into .bench_build/perfbench; later runs rebuild only what changed. Build
output goes to standard error, so standard output is the binary's alone and
its last line is the result JSON. Journal files go to a fresh directory
under .bench_build/tmp that is removed when the run ends.

Workloads: py-short and env-ship (BENCHMARK.json), and echo-burst, which
runs the same way but is not in BENCHMARK.json (see perfbench/rationale.json).
The exit code is nonzero when the build fails, a correctness check fails,
or the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ beside perfbench/, nothing to build")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "lfmbench",
                   "-j", BUILD_JOBS]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "lfmbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha1:" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1

    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD_ROOT, "tmp"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmpdir", tmpdir, "--commit", source_id()]
    sys.stdout.flush()
    # Its own process group, so a timed-out run takes its whole tree with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s, stopping it" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
