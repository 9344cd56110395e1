#!/usr/bin/env python3
"""Builds and runs the RDF-TX end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: wiki-mixed, govtrack-analytics, live-ingest. The first run
configures and builds the library and the benchmark (CMake + Ninja or
Make) into the build directory: $CARGO_TARGET_DIR when set, else
.bench_build. Later runs rebuild only what changed. Build output goes to
standard error; the benchmark's JSON result is the last line of
standard output. Live stores and trace files are written under
<build dir>/work and removed or overwritten by the next run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wiki-mixed", "govtrack-analytics", "live-ingest")


def build(build_dir):
    """Configures (first time) and builds; returns the binary path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("e2ebench: the library sources (src/) are not next to the benchmark")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    ap.add_argument("--save", metavar="FILE",
                    help="also append the result, tagged with workload, seed and trace, "
                         "to FILE (JSON lines, the input of compare.py)")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"e2ebench: build failed: {err}")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--work-dir", work_dir], stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and args.save:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(args.save, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
