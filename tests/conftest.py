"""Shared brute-force oracles.

These deliberately re-derive everything by direct enumeration so the fast
paths are checked against something independent of them.
"""

from fractions import Fraction
from itertools import product
from math import comb

import pytest


def brute_colength(gens, n):
    """Count lattice points no generator divides, boxed by the pure powers."""
    box = []
    for axis in range(n):
        pure = [g[axis] for g in gens
                if all(e == 0 for i, e in enumerate(g) if i != axis)]
        assert pure, "oracle needs an isolated zero"
        box.append(min(pure))
    count = 0
    for beta in product(*[range(b) for b in box]):
        if not any(all(a <= b for a, b in zip(g, beta)) for g in gens):
            count += 1
    return count


def product_ideal(ideal, t, r):
    """m^r * J^t as an explicit minimal generator set: J^t and m^r by the
    kernels' square-and-multiply powers, then one product.  t = r = 0
    gives the unit ideal."""
    from lctk import MonomialIdeal, kernels, maximal_ideal
    from lctk.multiplicities import MAX_TOTAL_DEGREE

    n = ideal.n
    j_t = kernels.power_minimal(ideal.generators, t, n, MAX_TOTAL_DEGREE)
    m_r = kernels.power_minimal(maximal_ideal(n).generators, r, n,
                                MAX_TOTAL_DEGREE)
    return MonomialIdeal(n, tuple(
        kernels.product_minimal(j_t, m_r, n, MAX_TOTAL_DEGREE)))


def colength(ideal):
    """Number of monomials outside the ideal: one cut-family count, with
    every cut at the generator's own degree."""
    from lctk import kernels

    return kernels.table_column(
        kernels.prepare_power(ideal.generators), [0], ideal.n)[0]


def colength_of_product(ideal, t, r):
    """Colength of m^r * J^t through the explicit product ideal: the
    independent oracle for colength-table cells."""
    return colength(product_ideal(ideal, t, r))


def ref_mixed_covolumes(ideal):
    """e_0..e_n from the covolumes of m * J^k, one per k = 0..n, each on the
    minimal generators of its own product ideal, through an exact
    Vandermonde solve for the coefficients of sum_j C(n, j) k^j e_j."""
    from lctk import covolume_times_factorial, normalize_generators

    n = ideal.n
    rows = [[Fraction(k ** j) for j in range(n + 1)] + [Fraction(
        covolume_times_factorial(normalize_generators(
            [tuple(k * x + (i == axis) for i, x in enumerate(g))
             for g in ideal.generators for axis in range(n)], n)))]
        for k in range(n + 1)]
    for c in range(n + 1):
        pivot = rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n + 1):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], pivot)]
    return tuple(rows[j][-1] / comb(n, j) for j in range(n + 1))


def brute_minimalize(vecs):
    vs = set(tuple(v) for v in vecs)
    out = [v for v in vs
           if not any(g != v and all(a <= b for a, b in zip(g, v))
                      for g in vs)]
    return sorted(out)


def brute_product_gens(gens_a, gens_b):
    return brute_minimalize(
        [tuple(x + y for x, y in zip(a, b)) for a in gens_a for b in gens_b])


def brute_power_gens(gens, t, n):
    out = [tuple(0 for _ in range(n))]
    for _ in range(t):
        out = brute_product_gens(out, gens)
    return out


def ref_leading(terms, order):
    return max(terms, key=order.key)


def ref_reduce(terms, basis, order):
    """Full division remainder of a term dict by a list of term dicts, with
    rational coefficients: repeatedly take the largest monomial by a rescan
    and subtract a multiple of the first basis member whose leading monomial
    divides it.  Returns (remainder term dict, division steps)."""
    work, rem, steps = dict(terms), {}, 0
    while work:
        mono = max(work, key=order.key)
        coeff = work.pop(mono)
        for g in basis:
            lm = ref_leading(g, order)
            if all(a <= b for a, b in zip(lm, mono)):
                steps += 1
                factor = coeff / g[lm]
                for gm, gc in g.items():
                    if gm != lm:
                        t = tuple(a + b - c for a, b, c in zip(gm, mono, lm))
                        v = work.get(t, 0) - factor * gc
                        if v:
                            work[t] = v
                        else:
                            work.pop(t, None)
                break
        else:
            rem[mono] = coeff
    return rem, steps


def ref_s_polynomial(f, g, order):
    """x^a f / lc(f) - x^b g / lc(g) for term dicts, the shifts taking both
    leading monomials to their lcm."""
    lcm = tuple(map(max, ref_leading(f, order), ref_leading(g, order)))
    out = {}
    for p, sign in ((f, 1), (g, -1)):
        lm = ref_leading(p, order)
        for m, c in p.items():
            t = tuple(a + b - e for a, b, e in zip(m, lcm, lm))
            v = out.get(t, 0) + sign * c / p[lm]
            if v:
                out[t] = v
            else:
                out.pop(t, None)
    return out


def ref_buchberger(polys, order, chain=True):
    """Reduced Groebner basis of term dicts by textbook Buchberger, with
    rational coefficients.  Members join monic; pairs are taken by smallest
    lcm total degree, then insertion order, skipping coprime leading
    monomials and, with chain, any pair (i, j) for which some third member
    k has a leading monomial dividing lcm(lm_i, lm_j) while neither (i, k)
    nor (j, k) is still pending; the first member for each minimal leading
    monomial is kept and its tail reduced by the other kept members.
    Returns (basis by decreasing leading monomial, division steps)."""
    basis, pairs, steps = [], [], 0

    def add(terms):
        lm = ref_leading(terms, order)
        for i, g in enumerate(basis):
            lg = ref_leading(g, order)
            if any(min(a, b) for a, b in zip(lg, lm)):
                pairs.append((sum(map(max, lg, lm)), i, len(basis)))
        basis.append({m: c / terms[lm] for m, c in terms.items()})

    def pending(a, b):
        return any({i, j} == {a, b} for _, i, j in pairs)

    def skipped(i, j):
        lcm = tuple(map(max, ref_leading(basis[i], order),
                        ref_leading(basis[j], order)))
        for k, g in enumerate(basis):
            if k in (i, j) or pending(i, k) or pending(j, k):
                continue
            if all(a <= b for a, b in zip(ref_leading(g, order), lcm)):
                return True
        return False

    for p in polys:
        add(p.terms)
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        _, i, j = pair
        if chain and skipped(i, j):
            continue
        s = ref_s_polynomial(basis[i], basis[j], order)
        if s:
            rem, k = ref_reduce(s, basis, order)
            steps += k
            if rem:
                add(rem)
    lms = [ref_leading(g, order) for g in basis]
    kept = {}
    for lm, g in zip(lms, basis):
        if not any(o != lm and all(a <= b for a, b in zip(o, lm))
                   for o in lms):
            kept.setdefault(lm, g)
    out = []
    for lm, g in kept.items():
        rem, k = ref_reduce(g, [h for o, h in kept.items() if o != lm],
                            order)
        steps += k
        out.append(rem)
    out.sort(key=lambda g: order.key(ref_leading(g, order)), reverse=True)
    return out, steps


def ref_pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    inv = 1 / piv
    tableau[row] = [v * inv for v in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            prow = tableau[row]
            tableau[i] = [rv - f * pv for rv, pv in zip(r, prow)]
    basis[row] = col


def _ref_bland(tableau, basis, cost):
    m = len(tableau)
    width = len(cost)
    while True:
        zrow = list(cost)
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                for j in range(width):
                    zrow[j] -= cb * tableau[i][j]
        enter = next((j for j in range(width) if zrow[j] < 0), -1)
        if enter < 0:
            return zrow
        leave, best = -1, None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            return None
        ref_pivot(tableau, basis, leave, enter)


def ref_solve_min(rows, rhs, cost, *tiebreaks):
    """Two-phase Bland simplex on a dense Fraction tableau: Fraction
    division in every pivot, the textbook form of lctk.simplex.solve_min.
    Returns (status, x, objective), x and objective None unless optimal;
    each pivot goes through ref_pivot(tableau, basis, row, col)."""
    m, n = len(rows), len(cost)
    cost = [Fraction(c) for c in cost]
    tableau = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row, b = [-v for v in row], -b
        tableau.append(row + [Fraction(int(k == i)) for k in range(m)] + [b])
    basis = [n + i for i in range(m)]
    _ref_bland(tableau, basis, [Fraction(0)] * n + [Fraction(1)] * m)
    if sum(tableau[i][-1] for i in range(m) if basis[i] >= n) != 0:
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                ref_pivot(tableau, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cols = list(range(n))
    zrow = _ref_bland(tableau, basis, cost)
    for tiebreak in tiebreaks:
        if zrow is None:
            break
        keep = [j for j, v in enumerate(zrow) if v == 0]
        at = {j: k for k, j in enumerate(keep)}
        tableau = [[row[j] for j in keep] + [row[-1]] for row in tableau]
        basis = [at[b] for b in basis]
        cols = [cols[j] for j in keep]
        zrow = _ref_bland(tableau, basis,
                          [Fraction(tiebreak[j]) for j in cols])
    if zrow is None:
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        x[cols[b]] = tableau[i][-1]
    return "optimal", x, sum((c * v for c, v in zip(cost, x)), Fraction(0))


@pytest.fixture(params=["python", "compiled"])
def kernel_lane(request):
    """Both kernel implementations, skipping compiled when unavailable."""
    if request.param == "python":
        from lctk import _staircase_py as lane
        return lane
    lane = pytest.importorskip("lctk._staircase")
    return lane
