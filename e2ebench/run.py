#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0

Builds the lsr library, the lsr_node server and the benchmark binary from
the sources next to this directory (into $CARGO_TARGET_DIR, default
.bench_build, under the checkout root), then runs the benchmark binary. Build output
goes to stderr; its last stdout line is the JSON result. Extra
arguments after the four standard ones are passed to it unchanged
(see README.md for the reference-figure flags).
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    configure = ["cmake", "-S", here, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.call(["which", "ninja"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            print("e2ebench: configure failed", file=sys.stderr)
            return 2
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(build_dir, "e2e_bench")
    args = [binary, "--node-binary", os.path.join(build_dir, "lsr_node"),
            "--log-dir", os.path.join(build_dir, "logs")] + sys.argv[1:]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, args)
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
