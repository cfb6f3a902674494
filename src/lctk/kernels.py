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
column, the rs of the staircase at one t, once, at its largest cut.  No
coordinate of a generator exceeds its degree, so that cut is the top, and
a ``PreparedPower`` that carries the largest degree of J^t makes the
guard O(1).
``LCTK_PURE_PYTHON=1`` forces the fallback lane.  Both lanes are
behaviourally identical; see tests/test_kernels.py for the parity suite and
``python3 perfbench/run.py --workload corpus --seconds 5 --trace 1``
(``kernels.speedup.*``) for the speed-ups.
"""

import os
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

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


def _compiled_ok_top(top, n):
    """The one bound: top, the largest coordinate or cut of a family."""
    return (_compiled is not None and 1 <= n <= 4 and top <= _MAX_COORD
            and top ** n < _MAX_COUNT)


def _compiled_ok_terms(terms, n):
    if not terms:
        return False
    return _compiled_ok_top(
        max(max(map(itemgetter(1), terms)),
            max(chain.from_iterable(map(itemgetter(0), terms)))), n)


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


class PreparedPower(NamedTuple):
    """Minimal generators g of J^t, their degrees |g| and the largest
    degree: all that ``table_column`` reads."""

    gens: list
    degrees: list
    degree: int


def prepare_power(gens):
    degrees = list(map(sum, gens))
    return PreparedPower(gens, degrees, max(degrees))


def _column_ok(power, r, n):
    """The verdict of ``_compiled_ok_terms`` on the cut family (g, |g| + r)
    of a prepared power, in O(1): with r >= 0 its top is the largest cut,
    the largest degree plus r, since no coordinate exceeds its degree."""
    return _compiled_ok_top(power.degree + r, n)


def table_column(power, rs, n):
    """Colengths of m^r * J^t for each r in rs, J^t a ``PreparedPower``:
    counts of the cut family (g, |g| + r).

    The guard's bound only grows with r, so one guard at the largest r
    picks the lane of the whole column.
    """
    lane = _compiled if _column_ok(power, max(rs), n) else _py
    gens, degrees = power.gens, power.degrees
    return [lane.count_cut_complement(
        list(zip(gens, map(r.__add__, degrees))), n) for r in rs]


def diagonal_cell(a, r, t):
    a = tuple(a)
    if _compiled is not None and len(a) <= 8:
        box = 1
        for ai in a:
            box *= r + t * ai + ai
        if box < _MAX_COUNT and r + t * max(a) <= _MAX_COORD:
            return _compiled.diagonal_cell(a, r, t)
    return _py.diagonal_cell(a, r, t)
