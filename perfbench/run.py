#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

    python3 perfbench/run.py --workload closed_llc --seed 7 --seconds 20 --trace 0

Run it from the root of a source checkout. It configures and builds
perfbench/CMakeLists.txt (the simulator library plus the tdn_perfbench
binary, Release) into .bench_build/, then runs tdn_perfbench, which writes its
reports and span files to .bench_out/ and prints one JSON result as the last
line of standard output. Build output goes to standard error. The exit code
is tdn_perfbench's; it is 2 when the simulator sources are missing or the build
fails, with no result printed. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "tdn_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources at src/; run from the root of "
              "a full checkout", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "tdn_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    os.makedirs(OUT, exist_ok=True)
    proc = subprocess.Popen([BINARY, "--out", OUT] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait()
    except BaseException:
        proc.terminate()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
