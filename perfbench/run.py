#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The benchmark program (perfbench/bench.ml)
is built from source with dune into .bench_build/, then runs the workload in
its own process.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the workloads and metrics
are listed in BENCHMARK.json.  Anything the run leaves behind (the build,
the traced run's spans) stays under .bench_build/.

End-to-end runs (--trace 0) are pinned to one CPU.  On a small shared host
the time a second CPU is really available swings widely: over one hour on a
2-vCPU VM, the serve daemon's median latency moved between 1.8 and 5.4 ms
and the 2-domain kernels ran up to 2x slower, while one-domain work moved
far less.  The traced run is not pinned, so its runtime report and j2
speed-up see every CPU the host gives.

Exits with a non-zero code, without a result line, when the checkout does
not hold the program's sources, when the build fails, or when the workload
fails or runs past its time limit.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# what the build needs besides the benchmark's own directory
REQUIRED = ["dune-project", "lib", "examples/programs", "perfbench/dune", "perfbench/bench.ml"]


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own test")
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not the root of a checkout (missing: %s)" % ", ".join(missing))

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/bench.exe"]
    try:
        # dune's own output goes to stderr: the last stdout line is the result
        subprocess.run(build, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.CalledProcessError as e:
        fail("build failed (exit %d)" % e.returncode)
    except subprocess.TimeoutExpired:
        fail("build ran past %d s" % BUILD_TIMEOUT_S)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(BUILD_DIR, "perfbench")]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == 0 and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the workload and waited for it
        fail("workload ran past %d s" % RUN_TIMEOUT_S, code=3)
    if proc.returncode != 0:
        fail("workload exited with code %d" % proc.returncode,
             code=proc.returncode if proc.returncode > 0 else 1)


if __name__ == "__main__":
    main()
