"""Exact rational simplex method (Bland's rule).

Solves min c.x subject to A x = b, x >= 0 over Fraction arithmetic using a
dense two-phase tableau.  Bland's smallest-index pivoting rule guarantees
termination.  Optional tiebreak costs are minimized in turn over the
optimal face left by the costs before them, on the same tableau, so a
lexicographic optimum costs one phase 1.  Problem sizes in this package are
tiny (tens of rows), so exactness is the only concern.
"""

from fractions import Fraction

from .errors import InvariantError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LPResult:
    __slots__ = ("status", "x", "objective")

    def __init__(self, status, x=None, objective=None):
        self.status = status
        self.x = x
        self.objective = objective


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    inv = _ONE / piv
    tableau[row] = [v * inv for v in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            prow = tableau[row]
            tableau[i] = [rv - f * pv for rv, pv in zip(r, prow)]
    basis[row] = col


def _bland(tableau, basis, cost):
    """Run simplex iterations on the tableau for the given cost vector.

    Returns the reduced costs at the optimum, or None when the cost is
    unbounded below.
    """
    m = len(tableau)
    width = len(cost)
    while True:
        # reduced costs: c_j - c_B . B^{-1} A_j, computed from the tableau
        zrow = list(cost)
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                row = tableau[i]
                for j in range(width):
                    if row[j] != 0:
                        zrow[j] -= cb * row[j]
        enter = -1
        for j in range(width):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return zrow
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return None
        _pivot(tableau, basis, leave, enter)


def solve_min(rows, rhs, cost, *tiebreaks):
    """min cost.x s.t. rows.x = rhs, x >= 0; all entries Fraction-like.

    Each tiebreak cost is then minimized over the optimal face of the costs
    before it.  At a stage's optimum every column with positive reduced cost
    is zero on that face (complementary slackness), so deleting those
    columns leaves exactly the face; basic columns have reduced cost 0 and
    stay.  `x` comes back at full length and `objective` is cost.x.
    """
    m = len(rows)
    n = len(cost)
    cost = [Fraction(c) for c in cost]
    tableau = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        art = [_ONE if k == i else _ZERO for k in range(m)]
        tableau.append(row + art + [b])
    basis = [n + i for i in range(m)]

    # phase 1: minimize the sum of artificials
    phase1 = [_ZERO] * n + [_ONE] * m
    if _bland(tableau, basis, phase1) is None:  # bounded below by zero
        raise InvariantError("phase 1 of the simplex ended unbounded")
    infeas = sum((tableau[i][-1] for i in range(m) if basis[i] >= n),
                 _ZERO)
    if infeas != 0:
        return LPResult(INFEASIBLE)
    # drive remaining artificials out of the basis (degenerate rows)
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    cols = range(n)  # original index of each tableau column
    zrow = _bland(tableau, basis, cost)
    for tiebreak in tiebreaks:
        if zrow is None:
            break
        keep = [j for j, d in enumerate(zrow) if d == 0]
        at = {j: k for k, j in enumerate(keep)}
        tableau = [[row[j] for j in keep] + [row[-1]] for row in tableau]
        basis = [at[b] for b in basis]
        cols = [cols[j] for j in keep]
        zrow = _bland(tableau, basis, [Fraction(tiebreak[j]) for j in cols])
    if zrow is None:
        return LPResult(UNBOUNDED)
    x = [_ZERO] * n
    for i, b in enumerate(basis):
        x[cols[b]] = tableau[i][-1]
    obj = sum((c * v for c, v in zip(cost, x)), _ZERO)
    return LPResult(OPTIMAL, x, obj)


def feasible(rows, rhs):
    """Phase-1 feasibility of rows.x = rhs, x >= 0."""
    n = len(rows[0])
    res = solve_min(rows, rhs, [_ZERO] * n)
    return res.status == OPTIMAL
