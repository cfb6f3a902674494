"""Set-up time of one benchmark run, measured in a fresh interpreter.

Imports lctk on the compiled lane already built in BUILD_DIR and makes the
workload's inputs for SEED, then prints the seconds that took.  The build
itself is not timed.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED BUILD_DIR
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402

import lane  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv):
    name, seed, build_dir = argv
    workload = WORKLOADS[name]
    lctk = lane.load_lctk(build_dir)
    workload.generate(lctk, int(seed), workload.pool_size)
    print(perf_counter() - START)


if __name__ == "__main__":
    main(sys.argv[1:])
