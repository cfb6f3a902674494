"""Intermediate multiplicity sequences of isolated-zero monomial ideals.

The sequence e_0, ..., e_n is extracted from the bivariate colength table
L(r, t) = colength(m^r * J^t): past a finite base the table agrees with a
polynomial of total degree n, and the mixed finite difference of order
(n-j, j) is then constantly e_j.  Generic slices of monomial ideals are not
monomial, so this bivariate characterization replaces slicing; the diagonal
closed form and the covolume oracle cross-check it.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd

from . import kernels
from .errors import (
    InvariantError,
    NonIsolatedError,
    UnitIdealError,
    UnstableFitError,
)
from .lattice import (
    MAX_TOTAL_DEGREE,
    colength,
    diagonal_weights_of,
    is_diagonal,
    is_isolated_zero,
)

#: Hilbert fitting retries doubling the base up to this bound.
BASE_CAP = 64


@dataclass(frozen=True)
class MultiplicitySequence:
    """Exact integers e_0, ..., e_n with e_0 = 1."""

    e: tuple

    def __post_init__(self):
        if not self.e or self.e[0] != 1:
            raise ValueError("sequence must start with e_0 = 1")
        if any(v <= 0 or v != int(v) for v in self.e):
            raise ValueError("entries must be positive integers")

    @property
    def n(self):
        return len(self.e) - 1


@dataclass(frozen=True)
class HilbertTable:
    """Colengths L(r, t) for r, t in [base, base + window]."""

    n: int
    base: int
    window: int
    values: tuple

    def cell(self, r, t):
        return self.values[r - self.base][t - self.base]

    def rows(self):
        for i, row in enumerate(self.values):
            for j, v in enumerate(row):
                yield self.base + i, self.base + j, v


def diagonal_mults(a):
    """e_j = a_1 * ... * a_j for ascending positive integer weights."""
    a = tuple(int(v) for v in a)
    if any(v <= 0 for v in a):
        raise ValueError("weights must be positive")
    if any(x > y for x, y in zip(a, a[1:])):
        raise ValueError("weights must be sorted ascending")
    e = [1]
    for v in a:
        e.append(e[-1] * v)
    return MultiplicitySequence(tuple(e))


def hilbert_table(ideal, base, window):
    """Exact colength table of m^r * J^t on [base, base+window]^2.

    Diagonal ideals use a per-axis aggregated count; everything else counts
    the complement of the implicit cut family built from minimal generators
    of J^t, so the product ideal itself is never materialized.
    """
    if ideal.is_unit:
        raise UnitIdealError("colength table undefined for the unit ideal")
    if not is_isolated_zero(ideal):
        raise NonIsolatedError(f"no isolated zero: {ideal}")
    if window < ideal.n + 2:
        raise ValueError(f"window must be >= n + 2 = {ideal.n + 2}")
    n = ideal.n
    values = []
    if is_diagonal(ideal):
        a = tuple(sorted(diagonal_weights_of(ideal)))
        for r in range(base, base + window + 1):
            values.append(tuple(kernels.diagonal_cell(a, r, t)
                                for t in range(base, base + window + 1)))
    else:
        powers = {}
        gens_t = kernels.power_minimal(
            ideal.generators, base, n, MAX_TOTAL_DEGREE)
        powers[base] = gens_t
        for t in range(base + 1, base + window + 1):
            gens_t = kernels.product_minimal(
                gens_t, ideal.generators, n, MAX_TOTAL_DEGREE)
            powers[t] = gens_t
        for r in range(base, base + window + 1):
            values.append(tuple(kernels.table_cell(powers[t], r, n)
                                for t in range(base, base + window + 1)))
    table = HilbertTable(n=n, base=base, window=window,
                         values=tuple(values))
    _check_strictly_increasing(table)
    return table


def _check_strictly_increasing(table):
    v = table.values
    for i, row in enumerate(v):
        for j in range(len(row) - 1):
            if row[j] >= row[j + 1]:
                raise InvariantError("table not increasing in t")
        if i + 1 < len(v) and any(a >= b for a, b in zip(row, v[i + 1])):
            raise InvariantError("table not increasing in r")


def _mixed_difference(table, r0, t0, dr, dt):
    total = 0
    for p in range(dr + 1):
        for q in range(dt + 1):
            sign = -1 if (dr - p + dt - q) % 2 else 1
            total += sign * comb(dr, p) * comb(dt, q) * table.cell(
                r0 + p, t0 + q)
    return total


@dataclass(frozen=True)
class FitResult:
    """Fitted sequence plus the table that stabilized it."""

    mults: MultiplicitySequence
    table: HilbertTable
    base: int


def fit_multiplicities(ideal):
    """Multiplicity sequence from stabilized mixed differences of the table.

    The difference of order (n-j, j) equals e_j once L is polynomial.
    Stabilization is declared when, for every j, the difference agrees at
    three consecutive diagonal points; the base starts at n times the
    maximal generator degree and doubles up to the cap.
    """
    if ideal.is_unit:
        raise UnitIdealError("multiplicities undefined for the unit ideal")
    if not is_isolated_zero(ideal):
        raise NonIsolatedError(f"no isolated zero: {ideal}")
    n = ideal.n
    maxdeg = max(sum(g) for g in ideal.generators)
    base = min(max(1, n * maxdeg), BASE_CAP)
    while True:
        table = hilbert_table(ideal, base, n + 2)
        seq = []
        stable = True
        for j in range(n + 1):
            vals = [_mixed_difference(table, base + i, base + i, n - j, j)
                    for i in range(3)]
            if vals[0] != vals[1] or vals[1] != vals[2]:
                stable = False
                break
            seq.append(vals[0])
        if stable and seq[0] == 1 and all(v > 0 for v in seq):
            return FitResult(MultiplicitySequence(tuple(seq)), table, base)
        if base >= BASE_CAP:
            raise UnstableFitError(
                f"no stable fit up to base {BASE_CAP} for {ideal}",
                table=table)
        base = min(base * 2, BASE_CAP)


def mixed_multiplicities(ideal):
    """The multiplicity sequence (see fit_multiplicities for the policy)."""
    return fit_multiplicities(ideal).mults


def _primitive(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return tuple(c // g for c in v) if g else v


def _cross(o, a, b):
    return ((a[0] - o[0]) * (b[1] - o[1])
            - (a[1] - o[1]) * (b[0] - o[0]))


def _lower_chain(pts):
    """One monotone chain: the lower hull of points in ascending order, the
    upper hull of points in descending order."""
    chain = []
    for p in pts:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def _hull_2d(points):
    """Counterclockwise convex hull (monotone chain) of integer points."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    return _lower_chain(pts)[:-1] + _lower_chain(reversed(pts))[:-1]


def _covolume_1d(gens):
    return min(g[0] for g in gens)


def _covolume_2d_doubled(gens):
    """Twice the area between the axes and the staircase hull (integer)."""
    poly = [(0, 0)] + _lower_chain(sorted(gens))
    s = 0
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        s += x1 * y2 - x2 * y1
    return abs(s)


def _covolume_3d_times_6(gens):
    """Six times the volume below the strictly-positive-normal facets.

    Facets of conv(gens) + R_+^3 with strictly positive normal are bounded
    with generator vertices; vertical facets have zero support height for
    isolated ideals, so the divergence sum over origin-fan tetrahedra needs
    only these facets.
    """
    normals = set()
    for v1, v2, v3 in combinations(gens, 3):
        u = tuple(a - b for a, b in zip(v2, v1))
        w = tuple(a - b for a, b in zip(v3, v1))
        nvec = (u[1] * w[2] - u[2] * w[1],
                u[2] * w[0] - u[0] * w[2],
                u[0] * w[1] - u[1] * w[0])
        if all(c > 0 for c in nvec):
            normals.add(_primitive(nvec))
        elif all(c < 0 for c in nvec):
            normals.add(_primitive(tuple(-c for c in nvec)))
    total6 = 0
    for w in normals:
        h = min(sum(a * b for a, b in zip(w, g)) for g in gens)
        face = [g for g in gens if sum(a * b for a, b in zip(w, g)) == h]
        if len(face) < 3:
            continue
        drop = max(range(3), key=lambda k: w[k])
        keep = [k for k in range(3) if k != drop]
        proj = {}
        for g in face:
            proj[(g[keep[0]], g[keep[1]])] = g
        hull2 = _hull_2d(list(proj))
        if len(hull2) < 3:
            continue
        ring = [proj[p] for p in hull2]
        s = 0
        p0 = ring[0]
        for i in range(1, len(ring) - 1):
            p1, p2 = ring[i], ring[i + 1]
            s += (p0[0] * (p1[1] * p2[2] - p1[2] * p2[1])
                  - p0[1] * (p1[0] * p2[2] - p1[2] * p2[0])
                  + p0[2] * (p1[0] * p2[1] - p1[1] * p2[0]))
        total6 += abs(s)
    return total6


def covolume_times_factorial(ideal):
    """n! times the volume of the bounded complement of the Newton
    polyhedron; equals e_n and cross-checks the table fit.  n <= 3 only."""
    if ideal.is_unit:
        raise UnitIdealError("covolume undefined for the unit ideal")
    if not is_isolated_zero(ideal):
        raise NonIsolatedError(f"no isolated zero: {ideal}")
    n = ideal.n
    if n > 3:
        raise ValueError("covolume oracle supports n <= 3 only")
    gens = ideal.generators
    if n == 1:
        return _covolume_1d(gens)
    if n == 2:
        return _covolume_2d_doubled(gens)
    return _covolume_3d_times_6(gens)


@dataclass(frozen=True)
class SequenceReport:
    log_convex: bool
    power_lower: bool
    interpolation: bool
    failures: tuple

    @property
    def all_ok(self):
        return self.log_convex and self.power_lower and self.interpolation


def validate_sequence(seq):
    """Exact check of the three inequality families a genuine sequence obeys.

    Log-convexity e_j^2 <= e_{j-1} e_{j+1}; the power bounds e_j >= e_1^j;
    and interpolation e_k^{l-j} <= e_j^{l-k} e_l^{k-j} for j < k < l.
    """
    e = seq.e if isinstance(seq, MultiplicitySequence) else tuple(seq)
    n = len(e) - 1
    failures = []
    log_convex = True
    for j in range(1, n):
        if e[j] ** 2 > e[j - 1] * e[j + 1]:
            log_convex = False
            failures.append(
                f"log-convexity: e_{j}^2 = {e[j] ** 2} > "
                f"{e[j - 1] * e[j + 1]} = e_{j - 1} e_{j + 1}")
    power_lower = True
    for j in range(n + 1):
        if e[j] < e[1] ** j:
            power_lower = False
            failures.append(f"power bound: e_{j} = {e[j]} < e_1^{j}")
    interpolation = True
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            for l in range(k + 1, n + 1):
                if e[k] ** (l - j) > e[j] ** (l - k) * e[l] ** (k - j):
                    interpolation = False
                    failures.append(
                        f"interpolation failed at (j,k,l)=({j},{k},{l})")
    return SequenceReport(log_convex, power_lower, interpolation,
                          tuple(failures))


def first_multiplicity(ideal):
    """e_1: the minimal generator total degree (cheap cross-check)."""
    if ideal.is_unit:
        raise UnitIdealError("e_1 undefined for the unit ideal")
    return min(sum(g) for g in ideal.generators)


def colength_of_product(ideal, t, r):
    """Brute-route colength of m^r * J^t through the explicit product;
    used by tests as the independent oracle for table cells."""
    from .lattice import scale_and_multiply

    return colength(scale_and_multiply(ideal, t, r, allow_unit=True))
