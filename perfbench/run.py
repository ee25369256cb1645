#!/usr/bin/env python3
"""Builds and runs the IDS wall-clock benchmark.

    python3 perfbench/run.py --workload fig4-wide|table2-sweep|whatif-session
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--allow-non-release] [--record-goldens]

Configures a Release build of perfbench/ (which compiles the engine from
src/) under .bench_build, or under $CARGO_TARGET_DIR when that is set,
then runs ids_perfbench from the repository root. The benchmark's last
line of stdout is one JSON object with "correct", "attempted", "failed"
and "metrics". Build output goes to stderr. Exits non-zero when the build
fails, an answer is wrong, or the run overruns its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    if shutil.which("cmake") is None:
        print("error: cmake not found", file=sys.stderr)
        return None
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", build_dir, "--target", "ids_perfbench", "-j", jobs]]
    # Configure once; later builds re-run it themselves when a CMake file
    # changes.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("error: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "ids_perfbench")
    return binary if os.access(binary, os.X_OK) else None


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig4-wide", "table2-sweep", "whatif-session"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--allow-non-release", action="store_true",
                    help="time a build that is not CMAKE_BUILD_TYPE=Release")
    ap.add_argument("--record-goldens", action="store_true",
                    help="write this seed's answer digests to perfbench/goldens")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--goldens", os.path.join(HERE, "goldens"), "--out", out_dir,
           "--commit", commit()]
    if args.allow_non_release:
        cmd.append("--allow-non-release")
    if args.record_goldens:
        cmd.append("--record-goldens")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: benchmark overran %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
