#!/usr/bin/env python3
"""Builds the moabench program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds a
Release tree in .bench_build (about 90 s on four cores); later runs only
re-check it. Build output goes to standard error, so the last line of
standard output is moabench's JSON result. The exit status is
moabench's: 0 when every answer was checked correct, non-zero otherwise,
including when the engine sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "moabench")
# A run lasts its --seconds plus set-up, reference runs and at most one
# pass past the deadline, which together stay well below this margin. A
# moabench that overruns is stopped rather than left behind.
SETUP_MARGIN_S = 140


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("run.py: engine sources (CMakeLists.txt, src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "moabench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
    )


def timeout_s(args):
    """The run's --seconds plus the set-up margin; moabench itself rejects
    a missing or malformed value."""
    seconds = 0
    for flag, value in zip(args, args[1:]):
        if flag == "--seconds" and value.isdigit():
            seconds = int(value)
    return seconds + SETUP_MARGIN_S


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")
    cmd = [BINARY, *sys.argv[1:], "--out-dir", OUT]
    limit = timeout_s(sys.argv[1:])
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: moabench exceeded {limit} s")


if __name__ == "__main__":
    sys.exit(main())
