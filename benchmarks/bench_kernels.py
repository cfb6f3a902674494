#!/usr/bin/env python3
"""Benchmark the compiled staircase kernels against the pure-Python lane.

The cases live in ``perfbench/kernel_cases.py``: minimal generators of an
ideal power, a colength-table cell through the cut family, minimalization
of random vectors, and the aggregated diagonal counter.  Prints the
speed-up of each case and exits 1 when the two lanes return different
results on any of them.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import kernel_cases  # noqa: E402

import lctk  # noqa: E402

try:
    from lctk import _staircase  # noqa: E402,F401
except ImportError:
    _staircase = None


def main():
    if _staircase is None:
        print("(no extension) lctk._staircase is not importable; nothing to compare")
        return 0
    metrics, mismatches = kernel_cases.speedups(lctk)
    for name, ratio in metrics.items():
        print(f"{name:<40} x{ratio:6.1f}")
    for name in mismatches:
        print(f"{name}: LANE MISMATCH", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
