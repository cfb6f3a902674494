"""Kernel selection: compiled staircase extension with pure-Python fallback.

The Cython extension ``lctk._staircase`` is used when it is importable and
every intermediate value provably fits in C int64; each entry point checks
its own inputs.  For ``count_cut_complement`` the dimension must be at most
4, and one bound guards the call: with top the largest coordinate or cut,
top <= 2^20 and top^n < 2^62.  Every per-axis cover is at most top, so
top^n bounds every count the compiled kernel can form; a family with an
axis that has no pure term reaches the kernel, which raises
``NonIsolatedError`` as the fallback does.  The bound only grows with the
degree cuts, so ``table_column`` guards the cells of one colength-table
column, the rs of the staircase at one t, once, at its largest cut.
``LCTK_PURE_PYTHON=1`` forces the fallback lane.  Both lanes are
behaviourally identical; see tests/test_kernels.py for the parity suite and
``python3 perfbench/run.py --trace 1`` (``kernels.speedup.*``) for the
speed-ups.
"""

import os
from itertools import chain
from operator import itemgetter

from . import _staircase_py as _py
from ._staircase_py import power_minimal as _square_and_multiply

_compiled = None
if os.environ.get("LCTK_PURE_PYTHON") != "1":
    try:
        from . import _staircase as _compiled  # type: ignore[no-redef]
    except ImportError:
        _compiled = None

BACKEND = "compiled" if _compiled is not None else "python"

# int64 safety margins for the compiled lane
_MAX_COORD = 1 << 20
_MAX_COUNT = 1 << 62


def _compiled_ok_terms(terms, n):
    if _compiled is None or not 1 <= n <= 4 or not terms:
        return False
    top = max(max(map(itemgetter(1), terms)),
              max(chain.from_iterable(map(itemgetter(0), terms))))
    return top <= _MAX_COORD and top ** n < _MAX_COUNT


def minimalize(vecs, n):
    if _compiled is not None and 1 <= n <= 8 and all(
            c <= _MAX_COORD for v in vecs for c in v):
        return _compiled.minimalize(vecs, n)
    return _py.minimalize(vecs, n)


def product_minimal(gens_a, gens_b, n, degree_cap):
    if _compiled is not None and 1 <= n <= 8 and degree_cap <= _MAX_COORD:
        return _compiled.product_minimal(gens_a, gens_b, n, degree_cap)
    return _py.product_minimal(gens_a, gens_b, n, degree_cap)


def power_minimal(gens, t, n, degree_cap):
    return _square_and_multiply(gens, t, n, degree_cap,
                                minimalize=minimalize,
                                product_minimal=product_minimal)


def count_cut_complement(terms, n):
    if _compiled_ok_terms(terms, n):
        return _compiled.count_cut_complement(terms, n)
    return _py.count_cut_complement(terms, n)


def table_column(power_gens, rs, n):
    """Colengths of m^r * J^t for each r in rs, J^t given by its minimal
    generators: counts of the cut family (g, |g| + r).

    The guard's bound only grows with r, so one guard at the largest r
    picks the lane of the whole column.
    """
    degrees = [(g, sum(g)) for g in power_gens]
    top = max(rs)
    lane = _compiled if _compiled_ok_terms(
        [(g, s + top) for g, s in degrees], n) else _py
    return [lane.count_cut_complement([(g, s + r) for g, s in degrees], n)
            for r in rs]


def diagonal_cell(a, r, t):
    a = tuple(a)
    if _compiled is not None and len(a) <= 8:
        box = 1
        for ai in a:
            box *= r + t * ai + ai
        if box < _MAX_COUNT and r + t * max(a) <= _MAX_COORD:
            return _compiled.diagonal_cell(a, r, t)
    return _py.diagonal_cell(a, r, t)
