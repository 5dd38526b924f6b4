#!/usr/bin/env python3
"""End-to-end ELDA benchmark: builds elda_perfbench from source and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload elda --seed 1 --seconds 50 --trace 0

The first run configures and compiles the repository's libraries plus the
benchmark binary into .bench_build/perfbench (about a minute on 4 cores);
later runs only re-check the build. Build output goes to stderr; the
binary's report goes to stdout, whose last line is the JSON result. The
exit code is the binary's: non-zero when an output check failed, or when
the sources or the build are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "elda_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no ELDA sources next to perfbench/ (src/ missing)")
    out = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=out, stderr=out)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
                    "--target", "elda_perfbench"],
                   check=True, stdout=out, stderr=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["elda", "gru"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["normal", "tiny"], default="normal")
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
