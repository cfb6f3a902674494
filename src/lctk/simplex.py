"""Exact simplex method (Bland's rule) on an integer tableau.

Solves min c.x subject to A x = b, x >= 0 by a dense two-phase tableau
kept fraction-free (Edmonds 1967; Bareiss 1968): the tableau is the
integer matrix T = d * B^-1 [A | b] for the current basis B, with one
common determinant d = |det B| > 0.  A pivot replaces every other row by
(p * T_i - T_ic * T_r) / d, a division that is exact because every entry
is a minor of [A | b], and d becomes the pivot p.  Rational input is
scaled to integers once by the package's one scaler, ``lattice._integers``:
rows and right-hand side by one common denominator and each cost by its
own, which changes no sign and so no pivot choice; a Fraction is formed
only for the solution at the end.

Bland's smallest-index rule guarantees termination.  Optional tiebreak
costs are minimized in turn over the optimal face left by the costs before
them, on the same tableau, so a lexicographic optimum costs one phase 1.
The module's one caller is ``thresholds``: the Kiselman and Howald LPs and
Newton-polyhedron membership, each posed so that it is feasible.  Problem
sizes there are tiny (tens of rows), so exactness is the only concern.
"""

from fractions import Fraction

from .errors import DimensionMismatchError, InvariantError
from .lattice import _integers

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


class LPResult:
    __slots__ = ("status", "x", "objective")

    def __init__(self, status, x=None, objective=None):
        self.status = status
        self.x = x
        self.objective = objective


def _pivot(tableau, basis, d, row, col):
    """Fraction-free pivot on (row, col) under determinant d; returns the
    new determinant.  Rows after the last basis row (a reduced-cost row)
    are updated like the others."""
    prow = tableau[row]
    p = prow[col]
    for i, r in enumerate(tableau):
        if i == row:
            continue
        f = r[col]
        if f:
            tableau[i] = [(p * v - f * w) // d for v, w in zip(r, prow)]
        elif p != d:
            tableau[i] = [p * v // d for v in r]
    basis[row] = col
    if p < 0:   # only when driving out artificials; keeps d = |det B|
        for i, r in enumerate(tableau):
            tableau[i] = [-v for v in r]
        return -p
    return p


def _bland(tableau, basis, d, cost):
    """Run simplex iterations on the tableau for the integer cost vector.

    Returns the determinant and the reduced costs at the optimum, times
    the determinant, or None for them when the cost is unbounded below.
    """
    m = len(tableau)
    width = len(cost)
    # reduced costs times d: d c_j - c_B . T_j, kept as one more row
    zrow = [d * c for c in cost] + [0]
    for i in range(m):
        cb = cost[basis[i]]
        if cb:
            zrow = [z - cb * v for z, v in zip(zrow, tableau[i])]
    tableau.append(zrow)
    while True:
        zrow = tableau[-1]
        enter = next((j for j in range(width) if zrow[j] < 0), -1)
        if enter < 0:
            zrow = zrow[:width]
            break
        # ratio test T_i[-1] / T_i[enter], by cross-multiplication
        leave = -1
        for i in range(m):
            row = tableau[i]
            a = row[enter]
            if a > 0:
                b = row[-1]
                if leave < 0:
                    leave, best_b, best_a = i, b, a
                    continue
                lhs = b * best_a
                rhs = best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            zrow = None
            break
        d = _pivot(tableau, basis, d, leave, enter)
    tableau.pop()
    return d, zrow


def solve_min(rows, rhs, cost, *tiebreaks):
    """min cost.x s.t. rows.x = rhs, x >= 0; all entries Fraction-like.

    Each tiebreak cost is then minimized over the optimal face of the costs
    before it.  At a stage's optimum every column with positive reduced cost
    is zero on that face (complementary slackness), so deleting those
    columns leaves exactly the face; basic columns have reduced cost 0 and
    stay.  `x` comes back at full length as Fractions and `objective` is
    cost.x.  Raises DimensionMismatchError unless there is one rhs entry
    per row and every row, tiebreak and the cost have the same length.
    """
    m = len(rows)
    n = len(cost)
    if len(rhs) != m:
        raise DimensionMismatchError(
            f"{m} rows but {len(rhs)} right-hand side entries")
    for vec in (*rows, *tiebreaks):
        if len(vec) != n:
            raise DimensionMismatchError(
                f"a row or tiebreak has length {len(vec)}, the cost {n}")
    flat = _integers([v for r in rows for v in r] + list(rhs))[0]
    tableau = []
    for i in range(m):
        row = flat[i * n:(i + 1) * n]
        b = flat[m * n + i]
        if b < 0:
            row = [-v for v in row]
            b = -b
        art = [0] * m
        art[i] = 1
        tableau.append(row + art + [b])
    basis = [n + i for i in range(m)]

    # phase 1: minimize the sum of artificials
    d, zrow = _bland(tableau, basis, 1, [0] * n + [1] * m)
    if zrow is None:  # bounded below by zero
        raise InvariantError("phase 1 of the simplex ended unbounded")
    if any(tableau[i][-1] for i in range(m) if basis[i] >= n):
        return LPResult(INFEASIBLE)
    # drive remaining artificials out of the basis (degenerate rows)
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                d = _pivot(tableau, basis, d, i, col)
    # a row still on an artificial is redundant; its unit column leaves
    # |det B|, so d, unchanged
    keep = [i for i in range(m) if basis[i] < n]
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    cols = range(n)  # original index of each tableau column
    d, zrow = _bland(tableau, basis, d, _integers(cost)[0])
    for tiebreak in tiebreaks:
        if zrow is None:
            break
        keep = [j for j, z in enumerate(zrow) if z == 0]
        at = {j: k for k, j in enumerate(keep)}
        tableau = [[row[j] for j in keep] + [row[-1]] for row in tableau]
        basis = [at[b] for b in basis]
        cols = [cols[j] for j in keep]
        d, zrow = _bland(tableau, basis, d,
                         _integers([tiebreak[j] for j in cols])[0])
    if zrow is None:
        return LPResult(UNBOUNDED)
    x = [_ZERO] * n
    for i, b in enumerate(basis):
        x[cols[b]] = Fraction(tableau[i][-1], d)
    obj = sum((Fraction(c) * v for c, v in zip(cost, x) if v), _ZERO)
    return LPResult(OPTIMAL, x, obj)

