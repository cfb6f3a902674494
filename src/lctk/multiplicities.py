"""Intermediate multiplicity sequences of isolated-zero monomial ideals.

Mixed multiplicities of monomial ideals are mixed covolumes, so e_0..e_n
come exactly from n! covol(P(m) + k P(J)) at k = 0..n.  Double
description finds the compact facets of a Newton polyhedron, and a
pulling triangulation of each one sums integer determinants; P(m) + k P(J)
has one normal fan for every k > 0, so one double description and one
triangulation per ideal serve every k.  The bivariate colength table
L(r, t) = colength(m^r * J^t) certifies the sequence: past a finite base
it agrees with a polynomial of total degree n, and the mixed finite
difference of order (n-j, j) is then constantly e_j.  The fit steps its
base by one from min(e_1, b), b read from the pure powers of J, one cell
counter serving every base, so no cell and no power J^t is counted
twice.  Generic slices of monomial ideals are not monomial, so this
bivariate characterization replaces slicing; the diagonal closed form
cross-checks both routes.
"""

from dataclasses import dataclass
from itertools import accumulate, groupby
from math import comb, gcd
from operator import itemgetter, mul

from . import kernels
from .errors import (
    InvariantError,
    NonIsolatedError,
    UnitIdealError,
    UnstableFitError,
)
from .lattice import is_isolated_zero, natural

#: The largest base a fit tries.
BASE_CAP = 64

#: Cap on the total degree of any monomial of a table's J^t and m^r J^t;
#: the t-fold products grow degrees linearly and this guards blowup.
MAX_TOTAL_DEGREE = 512

#: The fit reads the differences at the diagonal points (base + i, base + i)
#: for i below this count.
_POINTS = 3


@dataclass(frozen=True)
class MultiplicitySequence:
    """Exact integers e_0, ..., e_n with e_0 = 1 and n >= 1.

    Each entry is read by ``lattice.natural`` and stored as an int."""

    e: tuple

    def __post_init__(self):
        e = tuple(natural(v, "each e_j") for v in self.e)
        if len(e) < 2 or e[0] != 1:
            raise ValueError(
                "sequence must be (1, e_1, ..., e_n) with n >= 1")
        if 0 in e:
            raise ValueError("entries must be positive integers")
        object.__setattr__(self, "e", e)

    @property
    def n(self):
        return len(self.e) - 1


@dataclass(frozen=True)
class HilbertTable:
    """Colengths L(r, t) on the staircase of cells the fit reads.

    ``values`` maps (r, t) to L, t by t and ascending r, for the cells
    (base + x, base + y) with x, y >= i and x + y <= n + 2i for some
    diagonal point i < 3: 9, 16, 24 and 33 cells for n = 1..4, out of the
    (window + 1)^2 of the square [base, base + window]^2.  Reading any
    other cell is an InvariantError.
    """

    n: int
    base: int
    values: dict

    @property
    def window(self):
        """n + 2: the order-n differences at the diagonal points read
        cells up to base + window."""
        return self.n + _POINTS - 1

    def cell(self, r, t):
        try:
            return self.values[r, t]
        except KeyError:
            raise InvariantError(
                f"cell ({r}, {t}) is outside the staircase counted from "
                f"base {self.base}") from None

    def rows(self):
        """(r, t, L) of every counted cell, ordered by r, then t."""
        for (r, t), v in sorted(self.values.items()):
            yield r, t, v


def _staircase(n):
    """Offsets (x, y) from (base, base) of the cells the fit reads: the
    difference of order (n-j, j) at (base + i, base + i) reads the cells
    (base + i + p, base + i + q) with p <= n - j and q <= j."""
    return {(i + p, i + q) for i in range(_POINTS)
            for p in range(n + 1) for q in range(n + 1 - p)}


def diagonal_mults(a):
    """e_j = a_1 * ... * a_j for ascending positive integer weights; a zero
    weight makes a zero entry, which the sequence rejects."""
    a = tuple(natural(v, "each weight") for v in a)
    if any(x > y for x, y in zip(a, a[1:])):
        raise ValueError("weights must be sorted ascending")
    return MultiplicitySequence(tuple(accumulate(a, mul, initial=1)))


def _require_isolated(ideal, what):
    """The precondition of the table and the covolumes: a proper ideal
    with an isolated zero."""
    if ideal.is_unit:
        raise UnitIdealError(f"{what} undefined for the unit ideal")
    if not is_isolated_zero(ideal):
        raise NonIsolatedError(f"no isolated zero: {ideal}")


class _CellCounter:
    """Every colength-table cell of one ideal, counted once.

    A fit steps its base by one, and the staircases of neighbouring bases
    overlap.  The counter keeps each counted cell {(r, t): L} and, for
    each t from the current base up, the prepared generators of J^t, so a
    table at the next base counts only the cells it adds.  The first
    column of the first table is a square-and-multiply power of J; every
    later J^t is one product of the kept J^(t-1) with J.

    With an isolated zero every axis needs a pure power of its own, so the
    ideal is diagonal exactly when it has n minimal generators; its weights
    are their degrees, and a per-axis aggregated count gives each cell.
    Everything else counts the complement of the implicit cut family built
    from minimal generators of J^t, the new rs of one column per call, so
    the product ideal itself is never materialized.
    """

    def __init__(self, ideal):
        _require_isolated(ideal, "colength table")
        self.ideal = ideal
        # t by t, ascending r: the order of every table's values
        self.offsets = sorted(_staircase(ideal.n), key=itemgetter(1, 0))
        self.weights = tuple(sorted(map(sum, ideal.generators))) \
            if len(ideal.generators) == ideal.n else None
        self.cells = {}
        self.powers = {}

    def table(self, base):
        wanted = [(base + x, base + y) for x, y in self.offsets]
        # bases only grow, so no later table reads a column below this one
        self.powers = {t: p for t, p in self.powers.items() if t >= base}
        new = [c for c in wanted if c not in self.cells]
        if self.weights is not None:
            for r, t in new:
                self.cells[r, t] = kernels.diagonal_cell(self.weights, r, t)
        else:
            for t, column in groupby(new, key=itemgetter(1)):
                rs = [r for r, _ in column]
                self.cells.update(zip(
                    [(r, t) for r in rs],
                    kernels.table_column(self._power(t), rs, self.ideal.n)))
        table = HilbertTable(n=self.ideal.n, base=base,
                             values={c: self.cells[c] for c in wanted})
        _check_strictly_increasing(table)
        return table

    def _power(self, t):
        if t not in self.powers:
            gens, n = self.ideal.generators, self.ideal.n
            if t - 1 in self.powers:
                power = kernels.product_minimal(
                    self.powers[t - 1].gens, gens, n, MAX_TOTAL_DEGREE)
            else:
                power = kernels.power_minimal(gens, t, n, MAX_TOTAL_DEGREE)
            self.powers[t] = kernels.prepare_power(power)
        return self.powers[t]


def hilbert_table(ideal, base, _counter=None):
    """Exact colength table of m^r * J^t on the staircase of cells that the
    order-n differences at the diagonal points read (see HilbertTable); the
    corner of the square [base, base + window]^2 with the largest r + t,
    the costliest cells, is never counted.

    One ``_CellCounter`` counts every table.  ``fit_multiplicities`` passes
    the counter it keeps for its ideal as ``_counter``, so the tables at
    the bases it tries share their cells; without one, the table is
    counted from scratch.
    """
    base = natural(base, "table base")
    if _counter is None:
        _counter = _CellCounter(ideal)
    return _counter.table(base)


def _check_strictly_increasing(table):
    """Each counted cell is below its counted neighbours in t and in r."""
    v = table.values
    for (r, t), x in v.items():
        if v.get((r, t + 1), x + 1) <= x:
            raise InvariantError("table not increasing in t")
        if v.get((r + 1, t), x + 1) <= x:
            raise InvariantError("table not increasing in r")


def _stencil(dr, dt):
    """(p, q, signed binomial) of the mixed difference of order (dr, dt)."""
    return tuple((p, q, (-1) ** (dr - p + dt - q) * comb(dr, p) * comb(dt, q))
                 for p in range(dr + 1) for q in range(dt + 1))


def _mixed_difference(table, r0, t0, stencil):
    return sum(c * table.cell(r0 + p, t0 + q) for p, q, c in stencil)


@dataclass(frozen=True)
class FitResult:
    """Certified sequence plus the table that certified it at its base."""

    mults: MultiplicitySequence
    table: HilbertTable


def _bases(ideal):
    """The bases a fit tries, in order: one at a time from min(e_1, b) up
    to BASE_CAP, where b = (p_1 - 1) + ... + (p_{n-1} - 1) for the pure
    powers p_1 <= ... <= p_n of J (b = 0 for n = 1).  m^(b + p_n) lies in
    (x_1^p_1, ..., x_n^p_n), inside J, and b has the offset shape of the
    regularity of powers of that complete intersection (Cutkosky-Herzog-
    Trung 1999, Kodiyalam 2000).  That b accepts is not proved, so the
    fit climbs past it when it does not.  Some ideals accept well below
    b, so a smaller e_1 starts the fit: (x^20, x y^5, y^20) accepts at
    e_1 = 6, with b = 19."""
    pure = sorted(sum(g) for g in ideal.generators
                  if g.count(0) == ideal.n - 1)
    b = sum(p - 1 for p in pure[:-1])
    return range(min(first_multiplicity(ideal), b, BASE_CAP), BASE_CAP + 1)


def fit_multiplicities(ideal):
    """Multiplicity sequence from the mixed covolumes, certified by the table.

    ``mixed_covolumes`` gives e.  The colength table certifies it: a base
    is accepted when the differences of order (n-j, j), j = 0..n, at
    three consecutive diagonal points all equal e.  The bases come from
    ``_bases``: one at a time from min(e_1, b) up to the cap, with one
    cell counter for all of them, so each cell and each J^t is counted
    once.  At the cap, differences that agree with each other but not
    with the covolumes raise InvariantError, and differences that do not
    agree raise UnstableFitError, a ResourceCapError.  The returned or
    raised table is the staircase at the last base tried.
    """
    e = mixed_covolumes(ideal)
    n = ideal.n
    stencils = [_stencil(n - j, j) for j in range(n + 1)]
    counter = _CellCounter(ideal)
    for base in _bases(ideal):
        table = hilbert_table(ideal, base, counter)
        diffs = [tuple(_mixed_difference(table, base + i, base + i, s)
                       for s in stencils)
                 for i in range(_POINTS)]
        if all(d == e for d in diffs):
            return FitResult(MultiplicitySequence(e), table)
    if all(d == diffs[0] for d in diffs):
        raise InvariantError(
            f"stable table differences {list(diffs[0])} disagree "
            f"with the mixed covolumes {list(e)} for {ideal}")
    raise UnstableFitError(
        f"no stable fit up to base {BASE_CAP} for {ideal}", table=table)


def mixed_multiplicities(ideal):
    """The multiplicity sequence (see fit_multiplicities for the policy)."""
    return fit_multiplicities(ideal).mults


def _compact_facets(gens, n):
    """Point masks (bit k: point k) of the compact facets of P(gens).

    Their normals are the vertices of {w >= 0 : <w, g> >= 1}, found by
    double description (Motzkin et al. 1953; Fukuda-Prodon 1996) on the
    cone {(w, t) >= 0 : <w, g> - t >= 0}: from the n + 1 unit rays, add one
    generator row at a time, keeping primitive integer rays with the mask
    of constraints they vanish on (bit i <= n: sign of coordinate i; bit
    n + 1 + k: point k).  A positive and a negative ray combine only
    when adjacent: they share at least n - 1 constraints, and no third ray
    vanishes wherever both vanish.
    """
    d = n + 1
    rays = [(tuple(int(i == j) for j in range(d)), ((1 << d) - 1) ^ (1 << i))
            for i in range(d)]
    for k, g in enumerate(gens):
        row, bit = (*g, -1), 1 << (d + k)
        signed = [(sum(a * b for a, b in zip(row, r)), r, z) for r, z in rays]
        kept = [(r, z | bit if s == 0 else z) for s, r, z in signed if s >= 0]
        negative = [x for x in signed if x[0] < 0]
        for sp, p, zp in (x for x in signed if x[0] > 0):
            for sq, q, zq in negative:
                common = zp & zq
                if common.bit_count() < d - 2 or sum(
                        (z & common) == common for _, z in rays) > 2:
                    continue
                r = tuple(sp * b - sq * a for a, b in zip(p, q))
                c = gcd(*r)
                kept.append((tuple(x // c for x in r), common | bit))
        rays = kept
    return [z >> d for r, z in rays if r[n] > 0]


def _pulled(face, walls, memo):
    """Pulling triangulation of a face (a point mask) as tuples of point
    indices: the face's least point coned over the facets of the face that
    miss it.  Any point of a face will do, vertex or not: the cones from it
    over the facets that do not contain it subdivide the face.  Those facets
    are the maximal proper intersections of the face with the facets of
    the polyhedron, ``walls``."""
    if face not in memo:
        low = face & -face
        apex = low.bit_length() - 1
        parts = {face & f for f in walls} - {0, face}
        memo[face] = [(apex,)] if face == low else [
            (apex,) + s for p in parts
            if not p & low and not any(p != q and p & q == p for q in parts)
            for s in _pulled(p, walls, memo)]
    return memo[face]


def _abs_det(rows):
    """|det| of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    prev = 1
    for k in range(len(m) - 1):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        m[k], m[pivot] = m[pivot], m[k]
        for row in m[k + 1:]:
            row[k + 1:] = [(x * m[k][k] - row[k] * y) // prev
                           for x, y in zip(row[k + 1:], m[k][k + 1:])]
        prev = m[k][k]
    return abs(m[-1][-1])


def _covolumes(pairs, ks):
    """n! covol(P(U) + k P(G)) for each k in ks, from ``pairs``: every
    (u, g) of the point sets U and G, the sum spanned by the u + k g.

    For k > 0 the sums share one normal fan: u + k g lies on the face of
    normal w exactly when u and g lie on that face of P(U) and of P(G).
    So the compact facets and their pulling triangulations, as masks of
    pairs, are found once at k = 1.  The bounded complement is the union
    of the origin pyramids over the compact facets (the coordinate facets
    give height 0); a simplex s adds |det(u_i + k g_i : i in s)|.
    """
    n = len(pairs[0][0])
    points = [tuple(a + b for a, b in zip(u, g)) for u, g in pairs]
    facets = _compact_facets(points, n)
    walls = facets + [sum(1 << j for j, p in enumerate(points) if p[i] == 0)
                      for i in range(n)]
    memo = {}
    simplices = [s for f in facets for s in _pulled(f, walls, memo)]
    return [sum(_abs_det([[a + k * b for a, b in zip(*pairs[i])] for i in s])
                for s in simplices) for k in ks]


def covolume_times_factorial(ideal):
    """n! times the volume of the bounded complement of the Newton
    polyhedron P(J), for every n; equals e_n and cross-checks the fit on a
    double description of its own, apart from ``mixed_covolumes``.
    """
    _require_isolated(ideal, "covolume")
    zero = (0,) * ideal.n
    return _covolumes([(zero, g) for g in ideal.generators], [1])[0]


def mixed_covolumes(ideal):
    """e_0, ..., e_n of an isolated-zero ideal from exact covolumes.

    Mixed multiplicities of monomial ideals are mixed covolumes (Teissier;
    Kaveh-Khovanskii 2014): n! covol(P(m) + k P(J)) = sum_j C(n, j) k^j e_j.
    P(m) + k P(J) is spanned by the points u + k g, u a unit vector and g a
    generator; one double description and one triangulation serve every
    k = 1..n (see ``_covolumes``), so the covolumes there follow one integer
    polynomial P(k).  Its divided differences on the nodes 0..n, with 1 at
    k = 0, are integers only if P(0) = n! covol(P(m)) is 1 modulo n!;
    coefficient j divided by C(n, j) is e_j.
    """
    _require_isolated(ideal, "multiplicities")
    n = ideal.n
    units = [tuple(int(i == axis) for i in range(n)) for axis in range(n)]
    d = [1] + _covolumes([(u, g) for g in ideal.generators for u in units],
                         range(1, n + 1))
    # divided differences on the nodes 0..n, then Horner back to powers of k
    for i in range(1, n + 1):
        for k in range(n, i - 1, -1):
            d[k], rest = divmod(d[k] - d[k - 1], i)
            if rest:
                raise InvariantError(
                    f"covolumes of m * J^k are not an integer polynomial "
                    f"in k for {ideal}")
    coeffs = [d[n]]
    for i in range(n - 1, -1, -1):
        coeffs = [d[i] - i * coeffs[0]] + [
            a - i * b for a, b in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
    e = []
    for j, y in enumerate(coeffs):
        q, rest = divmod(y, comb(n, j))
        if rest or q <= 0:
            raise InvariantError(
                f"mixed covolume e_{j} = {y}/{comb(n, j)} is not a positive "
                f"integer for {ideal}")
        e.append(q)
    return tuple(e)


def first_multiplicity(ideal):
    """e_1: the minimal generator total degree (cheap cross-check)."""
    if ideal.is_unit:
        raise UnitIdealError("e_1 undefined for the unit ideal")
    return min(sum(g) for g in ideal.generators)
